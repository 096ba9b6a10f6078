// Output validators of the benchmark, written independently of the
// library's own checks (graph/properties.hpp): they read only the edge list
// (Graph::endpoints) and the solver's returned vectors, so a bug shared by
// a solver and the library's property helpers cannot hide here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/properties.hpp"  // dec::Color, dec::kUncolored

namespace perfbench {

/// What the validator found: `error` is empty when the output passed.
struct ColoringCheck {
  std::string error;
  int colors_used = 0;  // distinct colors, the benchmark's `palette`
};

/// Every edge of `g` carries a color in [0, palette_bound) and no two edges
/// sharing an endpoint carry the same color.
ColoringCheck check_edge_coloring(const dec::Graph& g,
                                  const std::vector<dec::Color>& colors,
                                  int palette_bound);

/// Token dropping postconditions read from the output alone: the token
/// total is conserved and every node ends with at most `k` tokens.
std::string check_tokens(const std::vector<int>& initial,
                         const std::vector<int>& final_tokens, int k);

/// Attempted / failed counts of one run. Every rejected output, non-kOk
/// job and reference mismatch counts as one failure; the first few reasons
/// are kept for the error report.
class Tally {
 public:
  /// Count one attempt; `error` empty means it passed.
  void record(const std::string& error);
  void merge(const Tally& other);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  static constexpr std::size_t kMaxReasons = 8;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

}  // namespace perfbench
