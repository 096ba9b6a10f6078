// decbench: runs one benchmark workload and prints its metrics.
//
//   decbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--out-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer ones. Notes go to "# " lines before it.
// The exit code is 0 only when a result was printed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") opts.workload = next();
    else if (a == "--seed")
      opts.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") opts.seconds = std::atof(next().c_str());
    else if (a == "--trace") opts.trace = next() == "1";
    else if (a == "--smoke") opts.smoke = true;
    else if (a == "--out-dir") opts.out_dir = next();
    else usage(argv[0]);
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0)) usage(argv[0]);
  return opts;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "decbench: %s\n", e.what());
    return 1;
  }
  // JSON has no NaN or infinity: a metric that is not finite is a failed
  // measurement, counted like a rejected output.
  for (perfbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.tally.record("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& reason : out.tally.reasons()) {
    std::printf("# REJECTED: %s\n", reason.c_str());
  }
  if (out.tally.attempted() > 0) {
    std::printf("# failed_frac %.6g (%lld of %lld)\n",
                static_cast<double>(out.tally.failed()) /
                    static_cast<double>(out.tally.attempted()),
                static_cast<long long>(out.tally.failed()),
                static_cast<long long>(out.tally.attempted()));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.tally.failed() == 0 ? "true" : "false",
              static_cast<long long>(out.tally.attempted()),
              static_cast<long long>(out.tally.failed()));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (i > 0) std::printf(", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
