#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/congest_coloring.hpp"
#include "core/solver_registry.hpp"
#include "core/token_dropping.hpp"
#include "graph/csr_io.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "service/solver_service.hpp"
#include "sim/pool.hpp"
#include "sim/thread_pool.hpp"
#include "trace.hpp"
#include "util/logstar.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dec::Color;
using dec::Graph;
using dec::NodeId;
using dec::SolverRequest;
using dec::SolverResult;

// ------------------------------------------------------------ constants

constexpr double kEps = 1.0;   // the congest solvers' ε (registry default)
constexpr int kDegree = 16;    // solver workloads: random 16-regular graphs
// Set-up is repeated and the median repeat reported; service_mix's set-up
// takes about 10 ms, so it is repeated more often.
constexpr int kSetupRepeats = 7;
constexpr int kServiceSetupRepeats = 31;

// Solver workload sizes. The number of refine sweeps a graph needs varies
// from graph to graph (one more sweep costs ~30% more rounds), so each run
// solves an odd-sized batch of seed-drawn graphs and reports medians over
// it, which stay steady from seed to seed where a single graph's figures
// do not. The median holds while most graphs need the same sweep count: at
// 1500 nodes about five in six congest graphs take three sweeps, at 8000
// nodes half take four and the median flips. Small graphs in a small batch
// give each graph many passes per run, so its fastest solve escapes the
// host's slow stretches.
constexpr NodeId kCongestNodes = 1500;
constexpr int kCongestGraphs = 5;
constexpr NodeId kSmokeNodes = 400;
constexpr int kSmokeGraphs = 3;
constexpr int kMinPasses = 3;

// service_mix: the deterministic zipf(1.1) stream over 12 tenants. The
// tenants' graphs are a fixed catalog: one tenant's congest template takes
// about a third of all jobs, and its cost swings with its refine sweep
// count, so drawing the catalog from the run seed would make the seed, not
// the code, decide the throughput. The seed draws the job stream.
constexpr std::uint64_t kCatalogSeed = 42;
constexpr int kTenants = 12;
constexpr int kKinds = 3;  // congest, bipartite, token dropping per tenant
constexpr double kZipfS = 1.1;
constexpr int kClients = 4;
constexpr int kWorkers = 4;
constexpr std::size_t kQueueCapacity = 64;

// Ledger components of the solvers the workloads run; anything else a
// future solver charges lands in core.rounds.other.
const std::vector<std::string> kLedgerComponents = {
    "bipartite_leaf", "bipartite_level", "bipartite_split", "defective4",
    "linial", "tail", "token_dropping"};

const char* kJobKinds[kKinds] = {"congest", "bipartite", "token_dropping"};

// ------------------------------------------------------------- helpers

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

int host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Peak resident set of this program, from VmHWM: the address space's own
/// high-water mark. getrusage's ru_maxrss is kept across execve, so under
/// a launcher it reads the launcher's resident set at fork when that is
/// larger (a Python launcher's 18.7 MB hid every workload's own peak).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int congest_bound(int max_degree) {
  return static_cast<int>(std::floor((8.0 + kEps) * max_degree));
}
int bipartite_bound(int max_degree) {
  return static_cast<int>(std::floor((2.0 + kEps) * max_degree));
}

/// Metric values by name; emit() orders them by the spec list and refuses a
/// spec the workload did not fill.
class MetricMap {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }

  std::vector<Metric> emit(const std::vector<MetricSpec>& specs) const {
    std::vector<Metric> out;
    for (const MetricSpec& s : specs) {
      const auto it = values_.find(s.name);
      if (it == values_.end()) {
        throw std::logic_error("benchmark bug: metric " + s.name +
                               " was not measured");
      }
      out.push_back({s.name, it->second, s.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

void set_ledger_rounds(MetricMap& m,
                       const std::map<std::string, std::int64_t>& breakdown) {
  for (const std::string& c : kLedgerComponents) m.set("core.rounds." + c, 0);
  m.set("core.rounds.other", 0);
  for (const auto& [name, rounds] : breakdown) {
    const bool known = std::find(kLedgerComponents.begin(),
                                 kLedgerComponents.end(),
                                 name) != kLedgerComponents.end();
    m.add(known ? "core.rounds." + name : "core.rounds.other",
          static_cast<double>(rounds));
  }
}

// ------------------------------------------------- service job plumbing

int kind_of(const SolverRequest& req) {
  if (req.solver == "congest_edge_coloring") return 0;
  if (req.solver == "bipartite_edge_coloring") return 1;
  return 2;
}

/// Independent validation of one service job's output. `palette` receives
/// the colors used (coloring jobs only).
std::string validate_job(const SolverRequest& req, const SolverResult& r,
                         int* palette = nullptr) {
  if (r.status != dec::SolverStatus::kOk) {
    return req.solver + " job ended " + dec::to_string(r.status) +
           (r.error.empty() ? "" : ": " + r.error);
  }
  if (const auto* c = std::get_if<dec::CongestColoringResult>(&r.output)) {
    const ColoringCheck chk = check_edge_coloring(
        *req.graph, c->colors, congest_bound(req.graph->max_degree()));
    if (palette != nullptr) *palette = chk.colors_used;
    return chk.error;
  }
  if (const auto* b = std::get_if<dec::BipartiteColoringResult>(&r.output)) {
    const ColoringCheck chk = check_edge_coloring(
        *req.graph, b->colors, bipartite_bound(req.graph->max_degree()));
    if (palette != nullptr) *palette = chk.colors_used;
    return chk.error;
  }
  if (const auto* t = std::get_if<dec::TokenDroppingResult>(&r.output)) {
    const auto& job = std::get<dec::TokenDroppingJob>(req.params);
    return check_tokens(job.initial_tokens, t->tokens, job.params.k);
  }
  return req.solver + ": unexpected output type";
}

auto congest_key(const dec::CongestColoringResult& r) {
  return std::tie(r.colors, r.palette, r.rounds, r.levels, r.tail_degree);
}
auto bipartite_key(const dec::BipartiteColoringResult& r) {
  return std::tie(r.colors, r.palette, r.rounds, r.levels,
                  r.leaf_degree_bound, r.chi);
}
auto token_key(const dec::TokenDroppingResult& r) {
  return std::tie(r.tokens, r.edge_passive, r.phases, r.rounds,
                  r.tokens_moved, r.max_message_bits);
}

/// Bit-identity with the direct-call reference: outputs and ledgers.
bool identical(const SolverResult& ref, const SolverResult& got) {
  if (ref.output.index() != got.output.index()) return false;
  bool same = true;
  if (const auto* r = std::get_if<dec::CongestColoringResult>(&ref.output)) {
    same = congest_key(*r) ==
           congest_key(std::get<dec::CongestColoringResult>(got.output));
  } else if (const auto* r =
                 std::get_if<dec::BipartiteColoringResult>(&ref.output)) {
    same = bipartite_key(*r) ==
           bipartite_key(std::get<dec::BipartiteColoringResult>(got.output));
  } else if (const auto* r =
                 std::get_if<dec::TokenDroppingResult>(&ref.output)) {
    same = token_key(*r) ==
           token_key(std::get<dec::TokenDroppingResult>(got.output));
  }
  return same && ref.ledger.breakdown() == got.ledger.breakdown();
}

/// Service-side timing of one job, from what the service returns.
struct JobTiming {
  double submit_ms = 0.0;   // client: the submit() call
  double queue_ms = 0.0;    // service: submit entry -> worker pickup
  double run_ms = 0.0;      // service: e2e minus queue wait
  double service_ms = 0.0;  // service: submit entry -> future resolution
  double client_ms = 0.0;   // client: submit() entry -> result in hand
};

JobTiming job_timing(Clock::time_point t0, Clock::time_point t1,
                     Clock::time_point t2, const SolverResult& r) {
  JobTiming t;
  t.submit_ms = ms_between(t0, t1);
  t.queue_ms = static_cast<double>(r.queue_wait_ns) * 1e-6;
  t.service_ms = static_cast<double>(r.e2e_latency_ns) * 1e-6;
  t.run_ms = t.service_ms - t.queue_ms;
  t.client_ms = ms_between(t0, t2);
  return t;
}

/// The spans of one service job, all carrying its id: the job, the submit
/// call, queue wait and run (placed from the service's own timings), and
/// the future's wake-up.
void job_spans(Tracer& tr, std::uint64_t parent, std::uint64_t job,
               const char* name, Clock::time_point t0, Clock::time_point t1,
               Clock::time_point t2, const SolverResult& r,
               std::vector<SpanRecord>& out) {
  const std::int64_t s0 = tr.to_ns(t0);
  const std::int64_t qw = r.queue_wait_ns;
  const std::int64_t e2e = r.e2e_latency_ns;
  SpanRecord root{tr.new_id(), parent, job, name, s0, tr.to_ns(t2)};
  out.push_back(root);
  out.push_back(
      {tr.new_id(), root.id, job, "service.submit", s0, tr.to_ns(t1)});
  out.push_back({tr.new_id(), root.id, job, "service.queue_wait", s0, s0 + qw});
  out.push_back({tr.new_id(), root.id, job, "service.run", s0 + qw, s0 + e2e});
  out.push_back({tr.new_id(), root.id, job, "service.resolve", s0 + e2e,
                 tr.to_ns(t2)});
}

/// Submit one job, wait for it, and return its result and timing; spans
/// go to `tr` when tracing.
SolverResult run_job(dec::SolverService& svc, const SolverRequest& req,
                     const dec::SubmitOptions& opts, JobTiming& timing,
                     Tracer* tr = nullptr, std::uint64_t parent = 0,
                     const char* name = "service.job",
                     std::vector<SpanRecord>* spans = nullptr) {
  const auto t0 = Clock::now();
  dec::JobTicket ticket = svc.submit(req, opts);
  const auto t1 = Clock::now();
  SolverResult r = ticket.result.get();
  const auto t2 = Clock::now();
  timing = job_timing(t0, t1, t2, r);
  if (tr != nullptr) {
    std::vector<SpanRecord> local;
    job_spans(*tr, parent, ticket.id, name, t0, t1, t2, r,
              spans != nullptr ? *spans : local);
    if (spans == nullptr) tr->add(local);
  }
  return r;
}

struct ServiceLayer {
  std::vector<double> submit_ms;
  std::vector<double> queue_ms;
  std::array<std::vector<double>, kKinds> run_ms;
  double service_ms = 0.0;  // sums, for span coverage
  double client_ms = 0.0;

  void add(int kind, const JobTiming& t) {
    submit_ms.push_back(t.submit_ms);
    queue_ms.push_back(t.queue_ms);
    run_ms[static_cast<std::size_t>(kind)].push_back(t.run_ms);
    service_ms += t.service_ms;
    client_ms += t.client_ms;
  }
  void merge(const ServiceLayer& o) {
    submit_ms.insert(submit_ms.end(), o.submit_ms.begin(), o.submit_ms.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    for (int k = 0; k < kKinds; ++k) {
      auto& dst = run_ms[static_cast<std::size_t>(k)];
      const auto& src = o.run_ms[static_cast<std::size_t>(k)];
      dst.insert(dst.end(), src.begin(), src.end());
    }
    service_ms += o.service_ms;
    client_ms += o.client_ms;
  }
  void report(MetricMap& m) const {
    m.set("service.submit_ms.p50", quantile(submit_ms, 0.5));
    m.set("service.submit_ms.p99", quantile(submit_ms, 0.99));
    m.set("service.queue_wait_ms.p50", quantile(queue_ms, 0.5));
    m.set("service.queue_wait_ms.p99", quantile(queue_ms, 0.99));
    for (int k = 0; k < kKinds; ++k) {
      const std::string base = std::string("service.run_ms.") + kJobKinds[k];
      m.set(base + ".p50", quantile(run_ms[static_cast<std::size_t>(k)], 0.5));
      m.set(base + ".p99", quantile(run_ms[static_cast<std::size_t>(k)], 0.99));
    }
  }
};

void report_service_stats(MetricMap& m, const dec::ServiceStats& s) {
  m.set("sim.topology.hit_rate", s.cache_hit_rate);
  m.set("sim.topology.plans_built", static_cast<double>(s.plans_built));
  m.set("sim.pool.parked_run_states",
        static_cast<double>(s.parked_run_states));
}

// --------------------------------------------------------- layer probes

/// Cold topology plan of `graphs` on a fresh arena; median of 3, in ms.
double plan_ms(const std::vector<const Graph*>& graphs, int threads) {
  std::vector<double> runs;
  for (int r = 0; r < 3; ++r) {
    dec::SharedNetworkPool pool(threads);
    const auto t0 = Clock::now();
    for (const Graph* g : graphs) (void)pool.topology(*g);
    runs.push_back(since(t0) * 1e3);
  }
  return median(runs);
}

/// One narrow single-plane round (every node sends one field on every
/// edge and sums its inbox) on a leased network: median round time, slots
/// delivered per second, and the run state's bytes per node.
void round_probe(const Graph& g, int threads, MetricMap& m) {
  dec::NetworkPool pool(threads);
  auto lease = pool.network(
      g, nullptr, "perfbench.round",
      dec::SlotPlan{dec::SlotFormat::kNarrow, 1, dec::PlaneMode::kSingle});
  std::vector<std::int64_t> acc(static_cast<std::size_t>(g.num_nodes()), 1);
  auto program = [&acc](NodeId v, const dec::NarrowInbox& in,
                        dec::NarrowOutbox& out) {
    std::int64_t s = acc[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < in.size(); ++i) {
      const dec::NarrowView msg = in[i];
      if (!msg.empty()) s += msg.at(0) & 0xff;
    }
    acc[static_cast<std::size_t>(v)] = s;
    for (std::size_t i = 0; i < out.size(); ++i) out[i].assign({s});
  };
  const std::size_t slots = lease->num_slots();
  const int rounds = static_cast<int>(
      std::clamp<std::size_t>(4'000'000 / std::max<std::size_t>(slots, 1),
                              200, 4000));
  for (int r = 0; r < 20; ++r) lease->round_fast(program);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    lease->round_fast(program);
    us.push_back(since(t0) * 1e6);
  }
  const double round_us = median(us);
  m.set("sim.round_us", round_us);
  m.set("sim.round_items_per_s",
        static_cast<double>(slots) / (round_us * 1e-6));
  m.set("sim.run_state_bytes_per_node",
        static_cast<double>(lease->memory_bytes()) /
            static_cast<double>(std::max<NodeId>(1, g.num_nodes())));
}

/// An empty ThreadPool::run at the host's thread count, median in µs.
double barrier_us() {
  dec::ThreadPool tp(host_threads());
  const std::function<void(int)> nop = [](int) {};
  for (int r = 0; r < 200; ++r) tp.run(nop);
  std::vector<double> us(3000);
  for (double& x : us) {
    const auto t0 = Clock::now();
    tp.run(nop);
    x = since(t0) * 1e6;
  }
  return median(std::move(us));
}

/// Write `graphs` to the binary CSR format and time reading them back.
double csr_load_s(const std::vector<const Graph*>& graphs,
                  const std::string& dir, Tally& tally) {
  double total = 0.0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const std::string path = dir + "/probe-" + std::to_string(i) + ".csr";
    dec::write_csr(path, *graphs[i]);
    const auto t0 = Clock::now();
    const Graph back = dec::read_csr(path);
    total += since(t0);
    std::filesystem::remove(path);
    tally.record(back.num_edges() == graphs[i]->num_edges()
                     ? ""
                     : "CSR round trip changed the edge count");
  }
  return total;
}

/// The ε congest_edge_coloring hands its level-0 defective 4-coloring on a
/// graph of this degree (its eps1: half over the level count, at most 1/4).
double level0_eps(const Graph& g) {
  const int k_levels = std::max(
      1, dec::floor_log2(static_cast<std::uint64_t>(
             std::max(2, g.max_degree()))) - 1);
  return std::min(0.25, 1.0 / (2.0 * k_levels));
}

/// The token dropping game of a graph: every edge oriented from its lower
/// to its higher id, seed-drawn initial tokens in [0, k].
SolverRequest token_request_from(const Graph& g, std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  arcs.reserve(static_cast<std::size_t>(g.num_edges()));
  for (dec::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    arcs.emplace_back(std::min(u, v), std::max(u, v));
  }
  auto game = std::make_shared<const dec::Digraph>(g.num_nodes(),
                                                   std::move(arcs));
  dec::TokenDroppingJob tj;
  tj.params.k = 8;
  tj.params.delta = 1;
  tj.params.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 2);
  dec::Rng rng(seed ^ 0x70c3e5ull);
  tj.initial_tokens.resize(static_cast<std::size_t>(g.num_nodes()));
  for (int& t : tj.initial_tokens) t = static_cast<int>(rng.next_below(9));
  return dec::make_token_dropping_request(std::move(game), std::move(tj));
}

// ---------------------------------------------------- solver workloads

struct SolverWorkload {
  NodeId nodes;  // per graph
  int graphs;    // graphs in the batch
  bool sharded;
};

struct BatchSetup {
  std::vector<std::shared_ptr<const Graph>> graphs;
  double generate_s = 0.0;
  double load_s = 0.0;
  double total_s = 0.0;
};

/// Generate the batch's graphs from the seed and load each through the
/// binary CSR path.
BatchSetup load_batch(NodeId n, int count, std::uint64_t seed,
                      const std::string& dir) {
  BatchSetup out;
  const auto t0 = Clock::now();
  for (int i = 0; i < count; ++i) {
    const auto g0 = Clock::now();
    dec::Rng rng(splitmix64(seed * 0x9e3779b97f4a7c15ull +
                            static_cast<std::uint64_t>(i)));
    const Graph random = dec::gen::random_regular(n, kDegree, rng);
    // The binary CSR format stores canonical edge lists (u < v, sorted);
    // random_regular emits its edges in shuffled order, which write_csr
    // writes as is and read_csr then refuses.
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(static_cast<std::size_t>(random.num_edges()));
    for (dec::EdgeId e = 0; e < random.num_edges(); ++e) {
      const auto [u, v] = random.endpoints(e);
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
    std::sort(edges.begin(), edges.end());
    const Graph generated = Graph::from_sorted_unique(n, std::move(edges));
    out.generate_s += since(g0);
    const std::string path = dir + "/graph-" + std::to_string(seed) + "-" +
                             std::to_string(i) + ".csr";
    dec::write_csr(path, generated);
    const auto l0 = Clock::now();
    out.graphs.push_back(std::make_shared<const Graph>(dec::read_csr(path)));
    out.load_s += since(l0);
    std::filesystem::remove(path);
  }
  out.total_s = since(t0);
  return out;
}

struct Solve {
  double seconds = 0.0;
  std::int64_t rounds = 0;
  int palette = 0;
  std::map<std::string, std::int64_t> breakdown;
  std::string error;
};

Solve solve_once(const Graph& g, int threads) {
  Solve s;
  dec::RoundLedger ledger;
  std::vector<Color> colors;
  const auto t0 = Clock::now();
  try {
    colors = dec::congest_edge_coloring(g, kEps, dec::ParamMode::kPractical,
                                        &ledger, threads)
                 .colors;
  } catch (const std::exception& e) {
    s.error = std::string("solver threw: ") + e.what();
  }
  s.seconds = since(t0);
  s.rounds = ledger.total();
  s.breakdown = ledger.breakdown();
  if (s.error.empty()) {
    const ColoringCheck chk =
        check_edge_coloring(g, colors, congest_bound(g.max_degree()));
    s.error = chk.error;
    s.palette = chk.colors_used;
  }
  return s;
}

/// Per-graph results of solving a batch in whole passes. Batch figures are
/// medians over the graphs: a graph that needs an extra refine sweep moves
/// a median far less than a sum. A graph's time is its fastest solve: the
/// host's neighbours slow whole stretches of a run by up to a third, and
/// the passes spread each graph's solves across the run.
struct SolveLoop {
  std::vector<std::vector<double>> seconds;  // per graph, per pass
  std::vector<double> rounds;                // per graph
  std::vector<double> palette;               // per graph
  int passes = 0;
  /// The median graph's ledger breakdown.
  std::map<std::string, std::int64_t> breakdown;

  std::vector<double> fastest() const {
    std::vector<double> out;
    for (const auto& v : seconds) {
      out.push_back(*std::min_element(v.begin(), v.end()));
    }
    return out;
  }

  /// Each graph's fastest solve scaled to the batch's median round count
  /// (seconds / rounds * median rounds). The seed's draw decides how many
  /// refine sweeps each graph needs, so the batch's slowest graph is the
  /// one the draw gave an extra sweep; at equal round counts the spread
  /// between graphs is the per-round speed of the code.
  std::vector<double> fastest_at_median_rounds() const {
    const double med = median(rounds);
    std::vector<double> out = fastest();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] *= med / std::max(1.0, rounds[i]);
    }
    return out;
  }
};

/// Moves the calling thread from CPU to CPU of its allowed set, one per
/// call to pin(); puts the allowed set back when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  void pin(std::size_t k) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Solve the batch in whole passes until `budget_s` has passed, at least
/// kMinPasses of them. Every solve is validated; a round count or palette
/// that differs from the graph's first solve is a failure (the solvers are
/// deterministic).
SolveLoop solve_loop(const std::vector<std::shared_ptr<const Graph>>& graphs,
                     int threads, double budget_s, Tally& tally, Tracer* tr) {
  SolveLoop loop;
  loop.seconds.resize(graphs.size());
  std::vector<std::map<std::string, std::int64_t>> breakdowns;
  // A serial solve runs on one vCPU, and on a shared host the vCPUs run at
  // different speeds for minutes at a time (one read 335 ms where another
  // read 553 ms for the same solve). Each pass moves the solving thread to
  // the next CPU, so a graph's fastest solve is its solve on the least
  // contended one, not on whichever the scheduler happened to keep it.
  std::optional<CpuRotation> rotation;
  if (threads == 1) rotation.emplace();
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i % graphs.size() != 0 || loop.passes < kMinPasses ||
       since(start) < budget_s;
       ++i) {
    const std::size_t gi = i % graphs.size();
    if (gi == 0 && rotation) {
      rotation->pin(static_cast<std::size_t>(loop.passes));
    }
    std::unique_ptr<ScopedSpan> span;
    if (tr != nullptr) span = std::make_unique<ScopedSpan>(*tr, "solve");
    Solve s = solve_once(*graphs[gi], threads);
    span.reset();
    if (i < graphs.size()) {
      loop.rounds.push_back(static_cast<double>(s.rounds));
      loop.palette.push_back(s.palette);
      breakdowns.push_back(std::move(s.breakdown));
    } else if (s.error.empty() && (s.rounds != loop.rounds[gi] ||
                                   s.palette != loop.palette[gi])) {
      s.error = "solve is not deterministic: rounds " +
                std::to_string(s.rounds) + " vs " +
                std::to_string(static_cast<std::int64_t>(loop.rounds[gi]));
    }
    tally.record(s.error);
    loop.seconds[gi].push_back(s.seconds);
    if (gi + 1 == graphs.size()) ++loop.passes;
  }
  // The batch size is odd, so the median graph is one graph.
  std::vector<std::size_t> order(graphs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::nth_element(order.begin(), order.begin() + order.size() / 2,
                   order.end(), [&](std::size_t a, std::size_t b) {
                     return loop.rounds[a] < loop.rounds[b];
                   });
  loop.breakdown = breakdowns[order[order.size() / 2]];
  return loop;
}

/// Level 0 of the congest pipeline replayed stage by stage through the
/// public stage functions on the workload graph: Linial, the defective
/// 4-coloring, bipartite coloring of both splits and the tail (the
/// congest solver on what level 0 leaves); then, outside the stage sum,
/// the LOCAL solver's defective split and a token dropping game.
/// Bipartite, tail and token jobs go through a one-worker SolverService,
/// which also measures the service layer on this workload. Returns the
/// stage-span sum in seconds.
double replay(const Graph& g, int threads, std::uint64_t seed, Tracer& tr,
              MetricMap& m, Tally& tally) {
  const ScopedSpan root(tr, "replay");
  dec::NetworkPool pool(threads);

  ScopedSpan lin_span(tr, "linial_color", root.id());
  const dec::LinialResult lin =
      dec::linial_color(g, nullptr, {}, 0, threads, &pool);
  const double lin_s = lin_span.close();
  m.set("coloring.linial_s", lin_s);
  m.set("coloring.linial_rounds", static_cast<double>(lin.rounds));

  ScopedSpan def_span(tr, "defective_4_coloring", root.id());
  const dec::DefectiveResult def4 = dec::defective_4_coloring(
      g, lin.colors, lin.palette, level0_eps(g), nullptr, threads, &pool);
  const double def_s = def_span.close();
  m.set("coloring.defective4_s", def_s);
  m.set("coloring.defective4_rounds", static_cast<double>(def4.rounds));
  m.set("coloring.defective4_messages", static_cast<double>(def4.messages));

  dec::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.engine_threads = threads;
  dec::SolverService svc(cfg);
  ServiceLayer layer;

  // Two bipartite splits of the 4 classes, then the monochromatic rest.
  std::vector<bool> taken(static_cast<std::size_t>(g.num_edges()), false);
  double bip_s = 0.0;
  std::int64_t bip_rounds = 0;
  for (int split = 0; split < 2; ++split) {
    dec::Bipartition parts;
    parts.side.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Color c = def4.colors[static_cast<std::size_t>(v)];
      parts.side[static_cast<std::size_t>(v)] =
          (split == 0 ? c >= 2 : c % 2 == 1) ? 1 : 0;
    }
    std::vector<bool> take(static_cast<std::size_t>(g.num_edges()), false);
    for (dec::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [a, b] = g.endpoints(e);
      if (!taken[static_cast<std::size_t>(e)] &&
          parts.side[static_cast<std::size_t>(a)] !=
              parts.side[static_cast<std::size_t>(b)]) {
        take[static_cast<std::size_t>(e)] = taken[static_cast<std::size_t>(e)] =
            true;
      }
    }
    auto bip = std::make_shared<const Graph>(dec::edge_subgraph(g, take).graph);
    dec::BipartiteColoringJob job;
    job.parts = std::move(parts);
    job.eps = kEps;
    const SolverRequest req = dec::make_bipartite_request(bip, std::move(job));
    JobTiming t;
    const SolverResult r =
        run_job(svc, req, {}, t, &tr, root.id(), "bipartite_edge_coloring");
    layer.add(kind_of(req), t);
    tally.record(validate_job(req, r));
    bip_s += t.client_ms * 1e-3;
    bip_rounds += r.ledger.total();
  }
  m.set("core.bipartite_s", bip_s);
  m.set("core.bipartite_rounds", static_cast<double>(bip_rounds));

  std::vector<bool> rest(taken.size());
  for (std::size_t e = 0; e < taken.size(); ++e) rest[e] = !taken[e];
  const SolverRequest tail_req = dec::make_congest_request(
      std::make_shared<const Graph>(dec::edge_subgraph(g, rest).graph),
      {kEps, dec::ParamMode::kPractical});
  JobTiming tail_t;
  const SolverResult tail =
      run_job(svc, tail_req, {}, tail_t, &tr, root.id(), "tail");
  layer.add(kind_of(tail_req), tail_t);
  tally.record(validate_job(tail_req, tail));
  const double stages_s = lin_s + def_s + bip_s + tail_t.client_ms * 1e-3;

  const SolverRequest token_req = token_request_from(g, seed);
  JobTiming tok_t;
  const SolverResult tok =
      run_job(svc, token_req, {}, tok_t, &tr, root.id(), "token_dropping");
  layer.add(kind_of(token_req), tok_t);
  tally.record(validate_job(token_req, tok));
  m.set("core.token_dropping_s", tok_t.client_ms * 1e-3);
  m.set("core.token_dropping_rounds",
        static_cast<double>(tok.ledger.total()));

  svc.shutdown();  // workers park their run states as they exit
  layer.report(m);
  report_service_stats(m, svc.stats());

  // The split the LOCAL solver's first iteration asks for.
  const int dmax = g.max_degree();
  ScopedSpan split_span(tr, "defective_split_coloring", root.id());
  const dec::DefectiveResult split = dec::defective_split_coloring(
      g, lin.colors, lin.palette, 4, std::max(dmax / 4 + 1, dmax / 2));
  const double split_s = split_span.close();
  m.set("coloring.defective_split_s", split_s);
  m.set("coloring.defective_split_rounds", static_cast<double>(split.rounds));
  return stages_s;
}

Outcome run_solver_workload(const Options& opts, const SolverWorkload& w) {
  Outcome out;
  MetricMap m;
  const NodeId n = opts.smoke ? kSmokeNodes : w.nodes;
  const int count = opts.smoke ? kSmokeGraphs : w.graphs;
  const int threads = w.sharded ? host_threads() : 1;

  std::vector<double> setup_s, generate_s, load_s;
  BatchSetup batch;
  for (int r = 0; r < kSetupRepeats; ++r) {
    batch = load_batch(n, count, opts.seed, opts.out_dir);
    setup_s.push_back(batch.total_s);
    generate_s.push_back(batch.generate_s);
    load_s.push_back(batch.load_s);
  }
  const Graph& g0 = *batch.graphs.front();
  const int bound = congest_bound(g0.max_degree());
  out.notes.push_back(std::to_string(count) + " random " +
                      std::to_string(kDegree) + "-regular graphs, n=" +
                      std::to_string(n) + " m=" +
                      std::to_string(g0.num_edges()) +
                      " each, engine threads " +
                      std::to_string(threads));

  if (!opts.trace) {
    const SolveLoop loop =
        solve_loop(batch.graphs, threads, opts.seconds, out.tally, nullptr);
    const std::vector<double> times = loop.fastest();
    const std::vector<double> scaled = loop.fastest_at_median_rounds();
    m.set("setup_s", median(setup_s));
    m.set("jobs_per_s", static_cast<double>(scaled.size()) / sum(scaled));
    m.set("latency_p50_ms", quantile(scaled, 0.5) * 1e3);
    m.set("latency_p99_ms", quantile(scaled, 0.99) * 1e3);
    m.set("solve_s", median(times));
    m.set("sim_rounds", median(loop.rounds));
    m.set("palette", median(loop.palette));
    m.set("peak_rss_mb", peak_rss_mb());
    out.notes.push_back(
        "solves: " + std::to_string(loop.passes) + " passes over " +
        std::to_string(times.size()) +
        " graphs (latency samples: one per graph, its fastest solve scaled "
        "to the median round count); rounds per graph " +
        std::to_string(static_cast<std::int64_t>(quantile(loop.rounds, 0))) +
        ".." +
        std::to_string(static_cast<std::int64_t>(quantile(loop.rounds, 1))) +
        "; palette up to " +
        std::to_string(static_cast<int>(quantile(loop.palette, 1))) +
        " of bound " + std::to_string(bound));
    std::string per_graph = "per graph, rounds / fastest solve ms:";
    for (std::size_t i = 0; i < times.size(); ++i) {
      per_graph += " " +
                   std::to_string(static_cast<std::int64_t>(loop.rounds[i])) +
                   "/" + std::to_string(times[i] * 1e3);
    }
    out.notes.push_back(per_graph);
    out.metrics = m.emit(end_to_end_metrics());
    return out;
  }

  // Traced run: untraced then traced passes over the batch (the difference
  // is the tracing overhead), then the layer probes under spans on the
  // batch's first graph.
  Tracer tr;
  const SolveLoop plain = solve_loop(batch.graphs, threads,
                                     opts.seconds / 2, out.tally, nullptr);
  const SolveLoop traced = solve_loop(batch.graphs, threads,
                                      opts.seconds / 2, out.tally, &tr);
  m.set("trace.overhead_ms",
        (median(traced.fastest()) - median(plain.fastest())) * 1e3);
  set_ledger_rounds(m, plain.breakdown);
  m.set("graph.generate_s", median(generate_s));
  m.set("graph.csr_load_s", median(load_s));
  m.set("sim.topology.plan_ms", plan_ms({&g0}, threads));
  {
    const ScopedSpan span(tr, "sim.round_probe");
    round_probe(g0, threads, m);
  }
  {
    const ScopedSpan span(tr, "sim.barrier_probe");
    m.set("sim.barrier_us", barrier_us());
  }
  m.set("trace.stage_coverage",
        replay(g0, threads, opts.seed, tr, m, out.tally) /
            plain.fastest().front());
  out.metrics = m.emit(per_layer_metrics());
  const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (!tr.write_json(path)) out.tally.record("cannot write " + path);
  out.notes.push_back("spans: " + path);
  return out;
}

// ------------------------------------------------------- service_mix

/// Zipf over [0, n) by inverse CDF: P(t) proportional to 1/(t+1)^s.
class ZipfTable {
 public:
  ZipfTable(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (int t = 0; t < n; ++t) {
      total += 1.0 / std::pow(static_cast<double>(t + 1), s);
      cdf_[static_cast<std::size_t>(t)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int sample(double u) const {
    for (std::size_t t = 0; t < cdf_.size(); ++t) {
      if (u <= cdf_[t]) return static_cast<int>(t);
    }
    return static_cast<int>(cdf_.size()) - 1;
  }

 private:
  std::vector<double> cdf_;
};

/// Three templates per tenant (congest, bipartite, token dropping) on the
/// tenant's own small graphs (n about 40-60); jobs share these requests.
std::vector<SolverRequest> build_templates() {
  const std::uint64_t seed = kCatalogSeed;
  std::vector<SolverRequest> templates;
  for (int t = 0; t < kTenants; ++t) {
    dec::Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(t));
    const int n = 40 + 4 * (t % 5);
    auto g = std::make_shared<const Graph>(dec::gen::gnp(n, 0.12, rng));
    templates.push_back(dec::make_congest_request(
        std::move(g), {kEps, dec::ParamMode::kPractical}));

    auto bg = std::make_shared<const dec::BipartiteGraph>(
        dec::gen::random_bipartite(16 + t % 6, 14 + t % 4, 0.18, rng));
    std::shared_ptr<const Graph> bgraph(bg, &bg->graph);
    dec::BipartiteColoringJob bj;
    bj.parts = bg->parts;
    bj.eps = kEps;
    templates.push_back(dec::make_bipartite_request(bgraph, std::move(bj)));

    auto game = std::make_shared<const dec::Digraph>(
        dec::layered_game(3 + t % 2, 8, 3, rng));
    dec::TokenDroppingJob tj;
    tj.params.k = 10 + t % 4;
    tj.params.delta = 1;
    tj.params.alpha.assign(static_cast<std::size_t>(game->num_nodes()), 2);
    tj.initial_tokens.assign(static_cast<std::size_t>(game->num_nodes()), 5);
    templates.push_back(
        dec::make_token_dropping_request(std::move(game), std::move(tj)));
  }
  return templates;
}

struct JobPlan {
  int template_index = 0;
  dec::SubmitOptions opts;
};

/// Job i follows from (seed, i) alone: tenant by zipf, kind, and priority
/// class (20/60/20). No deadlines: every job is meant to complete.
JobPlan plan_job(std::uint64_t seed, const ZipfTable& zipf, std::int64_t i) {
  const std::uint64_t h =
      splitmix64(seed ^ (0xabcdull + static_cast<std::uint64_t>(i)));
  const int tenant = zipf.sample(static_cast<double>(h >> 11) * 0x1.0p-53);
  const int kind = static_cast<int>(splitmix64(h) % kKinds);
  JobPlan plan;
  plan.template_index = tenant * kKinds + kind;
  const std::uint64_t p = splitmix64(h ^ 0x5bd1e995ull) % 10;
  plan.opts.priority = p < 2   ? dec::Priority::kHigh
                       : p < 8 ? dec::Priority::kNormal
                               : dec::Priority::kLow;
  return plan;
}

struct ServiceSetup {
  std::vector<SolverRequest> templates;
  std::vector<SolverResult> refs;
  std::unique_ptr<dec::SolverService> service;
  double templates_s = 0.0;
  double total_s = 0.0;
};

/// Templates, their direct-call references, service start-up and one warm
/// pass of every template through the service (plans and run states).
ServiceSetup setup_service() {
  ServiceSetup s;
  const auto t0 = Clock::now();
  s.templates = build_templates();
  s.templates_s = since(t0);
  for (const SolverRequest& req : s.templates) {
    s.refs.push_back(dec::execute_request(req, 1, nullptr));
  }
  dec::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.engine_threads = 1;
  s.service = std::make_unique<dec::SolverService>(cfg);
  std::vector<dec::JobTicket> warm;
  for (const SolverRequest& req : s.templates) {
    warm.push_back(s.service->submit(req));
  }
  for (dec::JobTicket& t : warm) (void)t.result.get();
  s.total_s = since(t0);
  return s;
}

/// Times in ms as counts in buckets 1% wide from 1 µs to about 10 s;
/// a quantile interpolates within its bucket, so it is off by under 1%.
/// The size is fixed: a vector of every sample made the process's peak
/// resident set follow the job rate (a fast stretch of the host added
/// 5 MB to a 19 MB peak).
class TimeHistogram {
 public:
  void add(double ms) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    ++counts_[bucket(ms)];
    ++total_;
  }
  void merge(const TimeHistogram& o) {
    if (o.total_ == 0) return;
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
  }
  /// q in [0, 1]; 0 for no samples.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::int64_t below = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::int64_t c = counts_[b];
      if (c > 0 && static_cast<double>(below + c) > rank) {
        const double frac = std::clamp(
            (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c),
            0.0, 1.0);
        return edge(b) + frac * (edge(b + 1) - edge(b));
      }
      below += c;
    }
    return edge(kBuckets);
  }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 1620;  // 1.01^1620 ~ 1e7

  static double edge(std::size_t b) {
    return kMinMs * std::pow(kGrowth, static_cast<double>(b));
  }
  static std::size_t bucket(double ms) {
    if (!(ms > kMinMs)) return 0;
    const double b = std::log(ms / kMinMs) / std::log(kGrowth);
    return std::min(kBuckets - 1, static_cast<std::size_t>(b));
  }

  std::vector<std::uint32_t> counts_;
  std::int64_t total_ = 0;
};

/// Samples of a closed loop by one-second window of completion.
struct MixWindows {
  std::vector<TimeHistogram> latency_ms;  // client: submit -> result
  std::vector<TimeHistogram> run_ms;      // service: e2e - queue wait
  std::vector<std::int64_t> ok;           // kOk completions

  void add(std::size_t w, double latency, double run, bool is_ok) {
    grow(w + 1);
    latency_ms[w].add(latency);
    run_ms[w].add(run);
    ok[w] += is_ok ? 1 : 0;
  }
  void merge(const MixWindows& o) {
    grow(o.ok.size());
    for (std::size_t w = 0; w < o.ok.size(); ++w) {
      latency_ms[w].merge(o.latency_ms[w]);
      run_ms[w].merge(o.run_ms[w]);
      ok[w] += o.ok[w];
    }
  }
  void grow(std::size_t n) {
    if (n <= ok.size()) return;
    latency_ms.resize(n);
    run_ms.resize(n);
    ok.resize(n, 0);
  }
};

struct MixLoop {
  MixWindows windows;
  std::int64_t jobs = 0;
  double wall_s = 0.0;
  ServiceLayer layer;  // traced loops only
};

/// The loop's figures per one-second window, reported as the median over
/// the windows: the host's neighbours slow whole stretches of a run by a
/// third and more, and the median window reads the service's own speed
/// through a stretch that covers less than half of the run. The p99 is the
/// windows' fast-side quartile (the 25th percentile of the window p99s):
/// a window's tail takes the host's scheduling delays in full, and over
/// two sets of ten seeds the median window p99 spread 1.1 and 0.33 while
/// the other figures stayed within 0.25.
struct MixFigures {
  double jobs_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double run_s = 0.0;
  std::size_t windows = 0;
};

MixFigures mix_figures(const MixLoop& loop) {
  // Whole windows only: the last one is cut off by the stop time.
  const std::size_t windows = std::min(
      loop.windows.ok.size(),
      static_cast<std::size_t>(std::max(1.0, std::floor(loop.wall_s))));
  std::vector<double> ok, p50, p99, run_med;
  for (std::size_t w = 0; w < windows; ++w) {
    const TimeHistogram& lat = loop.windows.latency_ms[w];
    ok.push_back(static_cast<double>(loop.windows.ok[w]));
    p50.push_back(lat.quantile(0.5));
    p99.push_back(lat.quantile(0.99));
    run_med.push_back(loop.windows.run_ms[w].quantile(0.5) * 1e-3);
  }
  MixFigures f;
  f.jobs_per_s = median(ok);
  f.latency_p50_ms = median(p50);
  f.latency_p99_ms = quantile(p99, 0.25);
  f.run_s = median(run_med);
  f.windows = windows;
  return f;
}

/// Closed loop: `clients` threads, each submitting its next job only after
/// the previous one resolved, until `budget_s` has passed. Every result is
/// checked bit-identical to its template's reference and validated.
MixLoop mix_loop(const ServiceSetup& s, std::uint64_t seed, int clients,
                 double budget_s, Tally& tally, Tracer* tr) {
  const ZipfTable zipf(kTenants, kZipfS);
  std::atomic<std::int64_t> next{0};
  std::vector<MixLoop> per(static_cast<std::size_t>(clients));
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget_s));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      MixLoop& mine = per[static_cast<std::size_t>(c)];
      Tally& my_tally = tallies[static_cast<std::size_t>(c)];
      std::vector<SpanRecord> spans;
      while (Clock::now() < stop) {
        const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        const JobPlan plan = plan_job(seed, zipf, i);
        const auto idx = static_cast<std::size_t>(plan.template_index);
        const SolverRequest& req = s.templates[idx];
        JobTiming t;
        const SolverResult r = run_job(*s.service, req, plan.opts, t, tr, 0,
                                       "service.job", &spans);
        std::string err = validate_job(req, r);
        if (err.empty() && !identical(s.refs[idx], r)) {
          err = req.solver + " job differs from its direct-call reference";
        }
        my_tally.record(err);
        ++mine.jobs;
        mine.windows.add(static_cast<std::size_t>(since(start)), t.client_ms,
                         t.run_ms, r.status == dec::SolverStatus::kOk);
        if (tr != nullptr) mine.layer.add(kind_of(req), t);
      }
      if (tr != nullptr) tr->add(spans);
    });
  }
  for (std::thread& t : threads) t.join();
  MixLoop all;
  all.wall_s = since(start);
  for (int c = 0; c < clients; ++c) {
    const MixLoop& mine = per[static_cast<std::size_t>(c)];
    all.windows.merge(mine.windows);
    all.jobs += mine.jobs;
    all.layer.merge(mine.layer);
    tally.merge(tallies[static_cast<std::size_t>(c)]);
  }
  return all;
}

std::vector<const Graph*> template_graphs(const ServiceSetup& s, int kind) {
  std::vector<const Graph*> out;
  for (const SolverRequest& req : s.templates) {
    if (req.graph != nullptr && (kind < 0 || kind_of(req) == kind)) {
      out.push_back(req.graph.get());
    }
  }
  return out;
}

Outcome run_service_mix(const Options& opts) {
  Outcome out;
  MetricMap m;
  const int clients = std::min(kClients, host_threads());

  std::vector<double> setup_s, templates_s;
  ServiceSetup s;
  for (int r = 0; r < kServiceSetupRepeats; ++r) {
    s = ServiceSetup{};  // stops the previous repeat's service first
    s = setup_service();
    setup_s.push_back(s.total_s);
    templates_s.push_back(s.templates_s);
  }
  // Independent validation of the references themselves.
  dec::RoundLedger ref_rounds;
  int palette = 0;
  std::int64_t sim_rounds = 0;
  for (std::size_t i = 0; i < s.templates.size(); ++i) {
    int used = 0;
    out.tally.record(validate_job(s.templates[i], s.refs[i], &used));
    palette = std::max(palette, used);
    sim_rounds += s.refs[i].ledger.total();
    ref_rounds.merge(s.refs[i].ledger);
  }
  out.notes.push_back("service: " + std::to_string(clients) +
                      " closed-loop clients, " + std::to_string(kWorkers) +
                      " workers, serial engines, " +
                      std::to_string(kTenants) + " tenants x " +
                      std::to_string(kKinds) + " templates");

  if (!opts.trace) {
    const MixLoop loop =
        mix_loop(s, opts.seed, clients, opts.seconds, out.tally, nullptr);
    const MixFigures f = mix_figures(loop);
    m.set("setup_s", median(setup_s));
    m.set("jobs_per_s", f.jobs_per_s);
    m.set("latency_p50_ms", f.latency_p50_ms);
    m.set("latency_p99_ms", f.latency_p99_ms);
    m.set("solve_s", f.run_s);
    m.set("sim_rounds", static_cast<double>(sim_rounds));
    m.set("palette", palette);
    m.set("peak_rss_mb", peak_rss_mb());
    out.notes.push_back(
        "jobs: " + std::to_string(loop.jobs) + " (latency samples) in " +
        std::to_string(f.windows) + " one-second windows, " +
        std::to_string(static_cast<double>(loop.jobs) / loop.wall_s) +
        " jobs/s over the whole loop");
    out.metrics = m.emit(end_to_end_metrics());
    return out;
  }

  Tracer tr;
  const MixLoop plain =
      mix_loop(s, opts.seed, clients, opts.seconds / 2, out.tally, nullptr);
  const MixLoop traced =
      mix_loop(s, opts.seed, clients, opts.seconds / 2, out.tally, &tr);
  m.set("trace.overhead_ms", mix_figures(traced).latency_p50_ms -
                                 mix_figures(plain).latency_p50_ms);
  m.set("trace.stage_coverage",
        traced.layer.service_ms / traced.layer.client_ms);
  traced.layer.report(m);
  s.service->shutdown();  // workers park their run states as they exit
  report_service_stats(m, s.service->stats());
  set_ledger_rounds(m, ref_rounds.breakdown());

  const std::vector<const Graph*> all_graphs = template_graphs(s, -1);
  const std::vector<const Graph*> congest_graphs = template_graphs(s, 0);
  m.set("graph.generate_s", median(templates_s));
  m.set("graph.csr_load_s", csr_load_s(all_graphs, opts.out_dir, out.tally));
  m.set("sim.topology.plan_ms", plan_ms(all_graphs, 1));
  const Graph* largest = *std::max_element(
      congest_graphs.begin(), congest_graphs.end(),
      [](const Graph* a, const Graph* b) {
        return a->num_edges() < b->num_edges();
      });
  round_probe(*largest, 1, m);
  m.set("sim.barrier_us", barrier_us());

  // Stage probes over the tenants' templates, summed.
  const ScopedSpan root(tr, "template_probes");
  for (const Graph* g : congest_graphs) {
    ScopedSpan lin_span(tr, "linial_color", root.id());
    const dec::LinialResult lin = dec::linial_color(*g);
    m.add("coloring.linial_s", lin_span.close());
    m.add("coloring.linial_rounds", static_cast<double>(lin.rounds));
    ScopedSpan def_span(tr, "defective_4_coloring", root.id());
    const dec::DefectiveResult def4 = dec::defective_4_coloring(
        *g, lin.colors, lin.palette, level0_eps(*g));
    m.add("coloring.defective4_s", def_span.close());
    m.add("coloring.defective4_rounds", static_cast<double>(def4.rounds));
    m.add("coloring.defective4_messages", static_cast<double>(def4.messages));
    const int dmax = g->max_degree();
    ScopedSpan split_span(tr, "defective_split_coloring", root.id());
    const dec::DefectiveResult split = dec::defective_split_coloring(
        *g, lin.colors, lin.palette, 4, std::max(dmax / 4 + 1, dmax / 2));
    m.add("coloring.defective_split_s", split_span.close());
    m.add("coloring.defective_split_rounds", static_cast<double>(split.rounds));
  }
  for (const SolverRequest& req : s.templates) {
    const int kind = kind_of(req);
    if (kind == 0) continue;
    const char* name = kind == 1 ? "bipartite" : "token_dropping";
    ScopedSpan span(tr, name, root.id());
    const SolverResult r = dec::execute_request(req, 1, nullptr);
    const double secs = span.close();
    out.tally.record(validate_job(req, r));
    m.add(std::string("core.") + name + "_s", secs);
    m.add(std::string("core.") + name + "_rounds",
          static_cast<double>(r.ledger.total()));
  }
  out.metrics = m.emit(per_layer_metrics());
  const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (!tr.write_json(path)) out.tally.record("cannot write " + path);
  out.notes.push_back("spans: " + path);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "service_mix", "congest_large", "congest_sharded"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"jobs_per_s", "1/s"},
      {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
      {"solve_s", "s"},          {"sim_rounds", "count"},
      {"palette", "count"},      {"peak_rss_mb", "MB"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"graph.generate_s", "s"},
        {"graph.csr_load_s", "s"},
        {"sim.topology.plan_ms", "ms"},
        {"sim.topology.hit_rate", "ratio"},
        {"sim.topology.plans_built", "count"},
        {"sim.pool.parked_run_states", "count"},
        {"sim.round_us", "us"},
        {"sim.round_items_per_s", "1/s"},
        {"sim.run_state_bytes_per_node", "B"},
        {"sim.barrier_us", "us"},
        {"coloring.linial_s", "s"},
        {"coloring.linial_rounds", "count"},
        {"coloring.defective4_s", "s"},
        {"coloring.defective4_rounds", "count"},
        {"coloring.defective4_messages", "count"},
        {"coloring.defective_split_s", "s"},
        {"coloring.defective_split_rounds", "count"},
        {"core.bipartite_s", "s"},
        {"core.bipartite_rounds", "count"},
        {"core.token_dropping_s", "s"},
        {"core.token_dropping_rounds", "count"},
    };
    for (const std::string& c : kLedgerComponents) {
      s.push_back({"core.rounds." + c, "count"});
    }
    s.push_back({"core.rounds.other", "count"});
    for (const char* q : {"p50", "p99"}) {
      s.push_back({std::string("service.submit_ms.") + q, "ms"});
      s.push_back({std::string("service.queue_wait_ms.") + q, "ms"});
      for (const char* kind : kJobKinds) {
        s.push_back({std::string("service.run_ms.") + kind + "." + q, "ms"});
      }
    }
    s.push_back({"trace.stage_coverage", "ratio"});
    s.push_back({"trace.overhead_ms", "ms"});
    return s;
  }();
  return specs;
}

Outcome run_workload(const Options& opts) {
  std::filesystem::create_directories(opts.out_dir);
  if (opts.workload == "service_mix") return run_service_mix(opts);
  if (opts.workload == "congest_large") {
    return run_solver_workload(opts, {kCongestNodes, kCongestGraphs, false});
  }
  if (opts.workload == "congest_sharded") {
    return run_solver_workload(opts, {kCongestNodes, kCongestGraphs, true});
  }
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace perfbench
