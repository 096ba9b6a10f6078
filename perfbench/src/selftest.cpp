// Self-test of the benchmark's validators: a corrupted coloring, an
// over-bound palette and a token count that is not conserved must each be
// rejected and counted as a failure. Exit code 0 when every case holds.
#include <cstdio>
#include <string>
#include <vector>

#include "validate.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using perfbench::check_edge_coloring;
  // A 4-cycle 0-1-2-3-0 plus the chord 0-2: node 0 and 2 have degree 3.
  const dec::Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  std::vector<dec::Color> good(static_cast<std::size_t>(g.num_edges()));
  for (dec::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    // The chord gets color 2; cycle edges alternate 0/1 around the cycle.
    good[static_cast<std::size_t>(e)] =
        (u == 0 && v == 2) || (u == 2 && v == 0) ? 2 : (u + v) % 4 == 1 ? 0 : 1;
  }
  const perfbench::ColoringCheck base = check_edge_coloring(g, good, 3);
  expect(base.error.empty() && base.colors_used == 3,
         "a proper 3-coloring passes and reports palette 3");

  perfbench::Tally tally;
  tally.record(base.error);

  std::vector<dec::Color> clash = good;
  clash[0] = clash[1];  // edges 0 and 1 share node 1
  const std::string clash_err = check_edge_coloring(g, clash, 3).error;
  expect(!clash_err.empty(), "two edges of one color at a node are rejected");
  tally.record(clash_err);

  std::vector<dec::Color> hole = good;
  hole[2] = dec::kUncolored;
  const std::string hole_err = check_edge_coloring(g, hole, 3).error;
  expect(!hole_err.empty(), "an uncolored edge is rejected");
  tally.record(hole_err);

  const std::string short_err =
      check_edge_coloring(g, std::vector<dec::Color>(2, 0), 3).error;
  expect(!short_err.empty(), "a coloring of the wrong length is rejected");
  tally.record(short_err);

  const std::string bound_err = check_edge_coloring(g, good, 2).error;
  expect(!bound_err.empty(), "a palette over the bound is rejected");
  tally.record(bound_err);

  const std::vector<int> initial = {3, 0, 2};
  expect(perfbench::check_tokens(initial, {1, 2, 2}, 3).empty(),
         "conserved tokens within k pass");
  const std::string lost = perfbench::check_tokens(initial, {1, 2, 1}, 3);
  expect(!lost.empty(), "a lost token is rejected");
  tally.record(lost);
  const std::string over = perfbench::check_tokens(initial, {0, 0, 5}, 3);
  expect(!over.empty(), "a node over k tokens is rejected");
  tally.record(over);

  expect(tally.attempted() == 7 && tally.failed() == 6,
         "every rejection is counted against the attempts");
  return failures == 0 ? 0 : 1;
}
