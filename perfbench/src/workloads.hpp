// The benchmark's workloads. Each one builds its inputs from the seed,
// times calls into the library's public functions from outside, validates
// every output, and returns its metrics by name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "validate.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;        // per-layer metrics instead of end-to-end
  bool smoke = false;        // tiny inputs: every workload in seconds
  std::string out_dir = ".bench_results";  // temporary CSR files, span dumps
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed as "# ..." lines
};

const std::vector<std::string>& workload_names();

/// Every metric a run prints, in order: end-to-end without --trace,
/// per-layer with it. BENCHMARK.json names exactly these.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Run one workload. Throws std::invalid_argument for an unknown name.
Outcome run_workload(const Options& opts);

}  // namespace perfbench
