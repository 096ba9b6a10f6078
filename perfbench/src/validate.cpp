#include "validate.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace perfbench {

ColoringCheck check_edge_coloring(const dec::Graph& g,
                                  const std::vector<dec::Color>& colors,
                                  int palette_bound) {
  ColoringCheck out;
  const auto m = static_cast<std::size_t>(g.num_edges());
  if (colors.size() != m) {
    out.error = "coloring has " + std::to_string(colors.size()) +
                " entries for " + std::to_string(m) + " edges";
    return out;
  }
  // (endpoint, color) for both ends of every edge; a repeated pair is two
  // edges of one color meeting at that endpoint.
  std::vector<std::pair<dec::NodeId, dec::Color>> ends;
  ends.reserve(2 * m);
  for (std::size_t e = 0; e < m; ++e) {
    const dec::Color c = colors[e];
    if (c < 0) {
      out.error = "edge " + std::to_string(e) + " is uncolored";
      return out;
    }
    if (c >= palette_bound) {
      out.error = "edge " + std::to_string(e) + " has color " +
                  std::to_string(c) + ", outside the bound " +
                  std::to_string(palette_bound);
      return out;
    }
    const auto [u, v] = g.endpoints(static_cast<dec::EdgeId>(e));
    ends.emplace_back(u, c);
    ends.emplace_back(v, c);
  }
  std::sort(ends.begin(), ends.end());
  const auto clash = std::adjacent_find(ends.begin(), ends.end());
  if (clash != ends.end()) {
    out.error = "two edges at node " + std::to_string(clash->first) +
                " share color " + std::to_string(clash->second);
    return out;
  }
  std::vector<dec::Color> used(colors);
  std::sort(used.begin(), used.end());
  out.colors_used = static_cast<int>(
      std::unique(used.begin(), used.end()) - used.begin());
  return out;
}

std::string check_tokens(const std::vector<int>& initial,
                         const std::vector<int>& final_tokens, int k) {
  if (initial.size() != final_tokens.size()) {
    return "token vector has " + std::to_string(final_tokens.size()) +
           " entries for " + std::to_string(initial.size()) + " nodes";
  }
  const long long before =
      std::accumulate(initial.begin(), initial.end(), 0LL);
  const long long after =
      std::accumulate(final_tokens.begin(), final_tokens.end(), 0LL);
  if (before != after) {
    return "token total changed from " + std::to_string(before) + " to " +
           std::to_string(after);
  }
  for (std::size_t v = 0; v < final_tokens.size(); ++v) {
    if (final_tokens[v] < 0 || final_tokens[v] > k) {
      return "node " + std::to_string(v) + " ends with " +
             std::to_string(final_tokens[v]) + " tokens, outside [0, " +
             std::to_string(k) + "]";
    }
  }
  return {};
}

void Tally::record(const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (reasons_.size() < kMaxReasons) reasons_.push_back(error);
}

void Tally::merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& r : other.reasons_) {
    if (reasons_.size() < kMaxReasons) reasons_.push_back(r);
  }
}

}  // namespace perfbench
