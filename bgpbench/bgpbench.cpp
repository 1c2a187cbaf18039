// bgpbench: the bgpsim benchmark driver.
//
// Runs one workload -- a fixed, closed batch of paper-protocol experiments
// on the 70-30 skewed topology with a contiguous centre failure -- through
// the public harness API only (run_experiment, run_sweep, converge_snapshot,
// run_experiment_from), repeats the batch until --seconds of host time have
// passed, and prints the end-to-end metrics (untraced pass) or the
// per-layer metrics (traced pass) as one JSON object on the last line of
// stdout. BENCHMARK.json at the repository root lists the workloads and
// metrics; bgpbench/README.md explains them and why they are host CPU time
// per simulated event, scaled to a reference machine speed.
//
//   bgpbench --workload storm_fifo --seed 1 --seconds 20 --trace 0
//
// Every measurement is taken from outside the simulator: the
// ExperimentConfig instrument/on_phase/on_complete hooks, a counting trace
// sink owned by this file, Network::par_profile(), a fresh bgp::PathTable
// and a shadow bgp::InputQueue. Nothing under src/ knows it is being
// measured.
//
// Correctness: every run must pass audit_routes, must not throw, and must
// reproduce its Loc-RIB digest on every repetition of the batch; with
// --trace 1 the traced pass must reproduce the untraced result digest. Any
// violation is counted in "failed" and makes the exit code 1.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/checkpoint.hpp"
#include "bgp/input_queue.hpp"
#include "bgp/network.hpp"
#include "bgp/path_table.hpp"
#include "bgp/router.hpp"
#include "bgp/trace.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/warmstart.hpp"

namespace {

using namespace bgpsim;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small utilities

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}
double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double now_s() { return ns_to_s(now_ns()); }

/// CPU seconds used so far by the whole process (all threads), or by the
/// calling thread only.
double cpu_s(bool this_thread) {
  timespec ts{};
  clock_gettime(this_thread ? CLOCK_THREAD_CPUTIME_ID : CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

void mix_double(std::uint64_t& h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  mix(h, bits);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Experiment seed of replica `i` of the workload seed: a pure function of
/// both, so the same --seed always builds the same batch.
std::uint64_t replica_seed(std::uint64_t workload_seed, std::uint64_t i) {
  return splitmix64(splitmix64(workload_seed) ^ (i + 1)) >> 1;
}

/// FNV-1a over the full post-run Loc-RIB content (router, prefix, local
/// flag, next hop, hop sequence) -- the shape bench/par_suite and
/// tools/identity_check print.
std::uint64_t rib_digest(const bgp::Network& net) {
  std::uint64_t h = kFnvOffset;
  for (bgp::NodeId v = 0; v < net.size(); ++v) {
    const bgp::Router& r = net.router(v);
    if (!r.alive()) continue;
    for (const bgp::Prefix p : r.known_prefixes()) {
      const auto e = r.best(p);
      if (!e.has_value()) continue;
      mix(h, v);
      mix(h, p);
      mix(h, e->local ? 1 : 0);
      mix(h, e->learned_from);
      mix(h, e->path.length());
      for (const bgp::AsId as : e->path.hops()) mix(h, as);
    }
  }
  return h;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// VmHWM is a process-wide high-water mark; clear_refs code 5 resets it to
// the current RSS so the reading covers this workload alone (the same
// mechanism bench/scale_suite uses).
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5\n", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_bytes() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Machine-speed calibration
//
// On a shared host the same simulation can slow by up to 2x for tens of
// seconds while other tenants load the machine (measured on a 4-vCPU Xeon
// VM), and repeating a batch cannot average out a drift that slow. So the
// untraced pass interleaves a fixed reference kernel (hash map, ordered map
// and sort work, the container mix the simulator itself leans on) between
// API calls, and scales every host time to a reference machine on which
// the kernel costs kRefNsPerOp per operation. The kernel is part of the
// benchmark, not of the simulator, so a faster simulator still reads
// faster. On that VM, one fixed run repeated for three minutes varied with
// a CV of 0.10 raw and 0.03 scaled (groups of six runs).

constexpr int kCalOps = 150'000;
constexpr double kRefNsPerOp = 500.0;

/// Host ns per kernel operation on the calling thread, measured now.
double calibrate_one() {
  const std::int64_t t0 = now_ns();
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::map<std::uint32_t, std::uint32_t> ordered;
  std::vector<std::uint32_t> keys;
  keys.reserve(kCalOps);
  std::uint64_t x = 1;
  for (int i = 0; i < kCalOps; ++i) {
    x = splitmix64(x);
    hashed[x % (kCalOps * 2 / 3)] += static_cast<std::uint64_t>(i);
    ordered[static_cast<std::uint32_t>(x % (kCalOps / 6))] = static_cast<std::uint32_t>(i);
    keys.push_back(static_cast<std::uint32_t>(x));
  }
  std::sort(keys.begin(), keys.end());
  std::uint64_t acc = keys[keys.size() / 2] + ordered.size();
  for (const auto& kv : hashed) acc += kv.second;
  const std::int64_t t1 = now_ns();
  if (acc == 42) std::fprintf(stderr, " ");  // keeps the work observable
  return static_cast<double>(t1 - t0) / kCalOps;
}

/// The kernel on `threads` threads at once (a partitioned run keeps that
/// many CPUs busy); returns the mean cost per thread.
double calibrate(std::size_t threads) {
  if (threads <= 1) return calibrate_one();
  std::vector<double> ns(threads, 0.0);
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < threads; ++i) pool.emplace_back([&ns, i] { ns[i] = calibrate_one(); });
  ns[0] = calibrate_one();
  for (auto& t : pool) t.join();
  double sum = 0.0;
  for (const double v : ns) sum += v;
  return sum / static_cast<double>(threads);
}

/// Calibration samples of one batch, in time order.
class CalLog {
 public:
  explicit CalLog(std::size_t threads = 1) : threads_{threads} {}

  void sample() {
    const double ns = calibrate(threads_);
    samples_.emplace_back(now_s(), ns);
  }

  /// Scale factor to reference speed for work done in [t0, t1]: from the
  /// last sample at or before t0 and the first at or after t1.
  double factor(double t0, double t1) const {
    if (samples_.empty()) return 1.0;
    const auto* before = &samples_.front();
    const auto* after = &samples_.back();
    for (const auto& smp : samples_) {
      if (smp.first <= t0) before = &smp;
    }
    for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
      if (it->first >= t1) after = &*it;
    }
    return kRefNsPerOp / (0.5 * (before->second + after->second));
  }
  /// Scale factor for the whole batch: mean over all its samples.
  double factor() const {
    if (samples_.empty()) return 1.0;
    double sum = 0.0;
    for (const auto& smp : samples_) sum += smp.second;
    return kRefNsPerOp * static_cast<double>(samples_.size()) / sum;
  }

 private:
  std::size_t threads_;
  std::vector<std::pair<double, double>> samples_;  ///< (time, ns per op)
};

// ---------------------------------------------------------------------------
// Workloads

enum class Shape {
  kSerial,  ///< run_experiment per config, in order, on this thread
  kSweep,   ///< run_sweep over consecutive groups of kSweepGroup configs
  kWarm,    ///< converge_snapshot of config 0, then run_experiment_from each
};

struct Workload {
  std::string name;
  Shape shape = Shape::kSerial;
  std::size_t sweep_threads = 1;  ///< harness pool degree (kSweep)
  std::size_t par_threads = 0;    ///< partition threads per run (0 = legacy serial)
  std::string queue;              ///< input-queue discipline(s), for the stamp
  std::vector<harness::ExperimentConfig> runs;
};

harness::ExperimentConfig base_config(std::size_t n, double mrai_s, double failure,
                                      std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.topology.kind = harness::TopologySpec::Kind::kSkewed;
  cfg.topology.n = n;
  cfg.scheme = harness::SchemeSpec::constant(mrai_s);
  cfg.failure_fraction = failure;
  cfg.seed = seed;
  return cfg;
}

// Sizes. Every workload's per-seed work varies with the generated topology
// (a 10% failure storm at n=120 sends 1.2-3.4 M updates depending on the
// seed), so the end-to-end metrics are host time per simulated event and
// the batches hold several topologies each.
constexpr std::size_t kStormN = 120;
constexpr std::size_t kStormRuns = 6;
constexpr std::size_t kGridN = 120;
constexpr std::size_t kGridSeeds = 2;
constexpr std::size_t kGridThreads = 2;
constexpr std::size_t kGridSchemes = 5;
/// Configs per run_sweep call in kSweep: one failure fraction of the grid.
/// Sweeping a grid point at a time lets the untraced pass calibrate
/// between calls about once a second instead of once a batch.
constexpr std::size_t kSweepGroup = kGridSchemes * kGridSeeds;
constexpr std::size_t kWarmN = 400;
constexpr std::size_t kParN = 600;
constexpr std::size_t kParThreads = 4;

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "storm_fifo") {
    w.queue = "fifo";
    for (std::size_t i = 0; i < kStormRuns; ++i) {
      w.runs.push_back(base_config(kStormN, 0.5, 0.10, replica_seed(seed, i)));
    }
    return w;
  }
  if (name == "schemes_grid") {
    w.shape = Shape::kSweep;
    w.sweep_threads = kGridThreads;
    w.queue = "batched+fifo";
    const std::array<harness::SchemeSpec, kGridSchemes> schemes = {
        harness::SchemeSpec::constant(0.5, true),
        harness::SchemeSpec::constant(1.25, true),
        harness::SchemeSpec::constant(2.25, true),
        harness::SchemeSpec::dynamic_mrai({}, true),
        harness::SchemeSpec::dynamic_mrai({}, false),
    };
    for (const double f : {0.025, 0.05, 0.10, 0.15, 0.20}) {
      for (const auto& scheme : schemes) {
        for (std::size_t r = 0; r < kGridSeeds; ++r) {
          auto cfg = base_config(kGridN, 0.5, f, replica_seed(seed, r));
          cfg.scheme = scheme;
          w.runs.push_back(std::move(cfg));
        }
      }
    }
    return w;
  }
  if (name == "warm_n400") {
    w.shape = Shape::kWarm;
    w.queue = "fifo";
    for (const double f : {0.002, 0.005, 0.01}) {
      w.runs.push_back(base_config(kWarmN, 2.25, f, replica_seed(seed, 0)));
    }
    return w;
  }
  if (name == "par_n600_k4") {
    w.par_threads = kParThreads;
    w.queue = "fifo";
    auto cfg = base_config(kParN, 2.25, 0.002, replica_seed(seed, 0));
    cfg.par_threads = kParThreads;
    w.runs.push_back(std::move(cfg));
    return w;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Traced-pass probes

/// Per-partition counters (one in serial mode). Each is written only by
/// the thread running its partition, so no locking; padded apart so the
/// partitions do not share cache lines.
struct alignas(64) Meter {
  std::array<std::uint64_t, bgp::TraceEvent::kNumKinds> counts{};
  std::uint64_t withdrawals_sent = 0;
  std::uint64_t batch_items = 0;  ///< sum of BatchProcessed sizes == messages_processed
  std::uint64_t queue_ops = 0;
  std::int64_t queue_ns = 0;
  std::vector<std::uint64_t> depth_hist;  ///< shadow-queue depth at each push
  std::int64_t last_ns = 0;               ///< clock of the latest callback
};

constexpr std::size_t kDepthCap = 1u << 16;  ///< deeper pushes land in the last bucket

/// The benchmark's trace sink: counts events per kind and replays every
/// router's arrivals and batch pops into a shadow bgp::InputQueue of the
/// run's discipline, timing push/pop_batch and recording depth at each
/// push. Keeps no event log (a storm is millions of events). Serves the
/// plain TraceSink interface in serial mode and ShardedTraceSink in
/// parallel mode.
class ProbeSink final : public bgp::TraceSink, public bgp::ShardedTraceSink {
 public:
  ProbeSink(const bgp::Network& net, std::size_t partitions) : meters_(partitions) {
    for (auto& m : meters_) m.depth_hist.assign(kDepthCap + 1, 0);
    const auto& cfg = net.config();
    queues_.reserve(net.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
      queues_.push_back(std::make_unique<bgp::InputQueue>(
          cfg.queue, cfg.tcp_batch_limit, net.prefix_space(), net.node_space()));
    }
  }

  void on_event(const bgp::TraceEvent& ev) override { handle(meters_[0], ev); }
  void on_event(std::size_t partition, const bgp::TraceEvent& ev,
                const bgp::TraceOrder&) override {
    handle(meters_[partition], ev);
  }

  const std::vector<Meter>& meters() const { return meters_; }

  std::int64_t last_ns() const {
    std::int64_t t = 0;
    for (const auto& m : meters_) t = std::max(t, m.last_ns);
    return t;
  }

  /// Clock of the latest callback before the failure was injected, and of
  /// the injection itself (0 until the first RouterFailed event). In
  /// parallel mode the injection runs on the main thread with the workers
  /// parked, so reading every meter here is race-free.
  std::int64_t converge_last_ns() const { return converge_last_ns_; }
  std::int64_t first_failed_ns() const { return first_failed_ns_; }

 private:
  void handle(Meter& m, const bgp::TraceEvent& ev) {
    using K = bgp::TraceEvent::Kind;
    ++m.counts[static_cast<std::size_t>(ev.kind)];
    switch (ev.kind) {
      case K::kUpdateReceived:
      case K::kPeerDown: {
        bgp::WorkItem item;
        item.kind = ev.kind == K::kPeerDown ? bgp::WorkItem::Kind::kPeerDown
                                            : bgp::WorkItem::Kind::kUpdate;
        item.from = ev.peer;
        item.prefix = ev.kind == K::kPeerDown ? bgp::kTeardownKey : ev.prefix;
        item.withdraw = ev.withdraw;
        bgp::InputQueue& q = *queues_[ev.router];
        const std::int64_t t0 = now_ns();
        q.push(std::move(item));
        const std::int64_t t1 = now_ns();
        m.queue_ns += t1 - t0;
        ++m.queue_ops;
        ++m.depth_hist[std::min(q.size(), kDepthCap)];
        m.last_ns = t1;
        return;
      }
      case K::kBatchStarted: {
        bgp::InputQueue& q = *queues_[ev.router];
        if (q.empty()) break;
        std::uint64_t dropped = 0;
        const std::int64_t t0 = now_ns();
        const auto batch = q.pop_batch(dropped);
        const std::int64_t t1 = now_ns();
        m.queue_ns += t1 - t0;
        ++m.queue_ops;
        m.last_ns = t1;
        return;
      }
      case K::kBatchProcessed:
        m.batch_items += ev.batch_size;
        break;
      case K::kUpdateSent:
        if (ev.withdraw) ++m.withdrawals_sent;
        break;
      case K::kRouterFailed:
        if (first_failed_ns_ == 0) {
          converge_last_ns_ = last_ns();
          first_failed_ns_ = now_ns();
        }
        queues_[ev.router]->clear();
        break;
      case K::kRouterRecovered:
        queues_[ev.router]->clear();
        break;
      default:
        break;
    }
    m.last_ns = now_ns();
  }

  std::vector<Meter> meters_;
  std::vector<std::unique_ptr<bgp::InputQueue>> queues_;
  std::int64_t converge_last_ns_ = 0;
  std::int64_t first_failed_ns_ = 0;
};

/// Path-table probe results for one run.
struct PathProbe {
  std::uint64_t interns = 0;
  std::int64_t intern_ns = 0;
  std::size_t distinct_paths = 0;
  std::size_t table_bytes = 0;
  std::size_t routes = 0;     ///< Loc-RIB + Adj-RIB-In + Adj-RIB-Out slots
  std::size_t rib_bytes = 0;  ///< flat RIB stores + the live path table
  double capacity_low_water = 1.0;
};

/// Re-interns the converged Loc-RIB and Adj-RIB-In path population into a
/// fresh PathTable, timing only the intern() calls (paths are materialized
/// one router at a time into a reusable buffer first).
PathProbe probe_paths(const bgp::Network& net) {
  PathProbe out;
  bgp::PathTable fresh;
  std::vector<bgp::AsPath> buf;
  for (bgp::NodeId v = 0; v < net.size(); ++v) {
    const bgp::Router& r = net.router(v);
    const auto st = r.storage_stats();
    out.routes += st.loc_rib_routes + st.adj_in_routes + st.adj_out_routes;
    out.rib_bytes += st.rib_bytes;
    if (!r.alive()) continue;
    buf.clear();
    const auto peers = r.peers();
    for (const bgp::Prefix p : r.known_prefixes()) {
      if (auto e = r.best(p); e.has_value()) buf.push_back(std::move(e->path));
      for (const bgp::NodeId peer : peers) {
        if (auto a = r.adj_in(peer, p); a.has_value()) buf.push_back(std::move(*a));
      }
    }
    const std::int64_t t0 = now_ns();
    for (const auto& path : buf) fresh.intern(path);
    out.intern_ns += now_ns() - t0;
    out.interns += buf.size();
  }
  out.distinct_paths = fresh.size();
  out.table_bytes = fresh.memory_bytes();
  out.rib_bytes += net.paths().memory_bytes();
  out.capacity_low_water = net.path_capacity_low_water();
  return out;
}

// ---------------------------------------------------------------------------
// One batch execution

/// Everything observed about one run. Hooks of run i write only obs[i], so
/// sweep runs on pool threads never share a record.
struct RunObs {
  bgp::Network* net = nullptr;  ///< valid only between instrument and on_complete
  double t_call = 0.0;          ///< direct calls only: when the API call began
  double t_instrument = 0.0;
  double t_cold = 0.0;
  double t_failure = 0.0;
  double t_complete = 0.0;
  double t_checked = 0.0;       ///< end of on_complete (digest + probes done)
  double t_return = 0.0;        ///< direct calls only: when the API call returned
  // CPU clock (see cpu_s) at the same points.
  double cpu_cold = 0.0;
  double cpu_failure = 0.0;
  double cpu_complete = 0.0;
  double cpu_checked = 0.0;
  double cpu_return = 0.0;
  std::uint64_t events_at_failure = 0;
  std::uint64_t digest = 0;
  bool completed = false;
  bool threw = false;
  std::string error;
  harness::RunResult res;
  // traced pass only
  std::unique_ptr<ProbeSink> sink;
  std::int64_t converge_last_ns = 0;
  std::int64_t converge_end_ns = 0;
  std::int64_t failure_last_ns = 0;
  PathProbe paths;
  bgp::ParProfile par;
  double capture_s = 0.0;

  /// Host time at which the run started inside the harness: finish_run
  /// stamps total_s right after on_complete returns.
  double t_begin() const { return t_call > 0.0 ? t_call : t_checked - res.timing.total_s; }
  double setup_s() const { return t_instrument - t_begin(); }
  double audit_start() const { return t_complete - res.timing.audit_s; }
  double check_s() const { return t_checked - t_complete; }
  /// CPU of the failure phase. The audit between on_phase(kFailure) and
  /// on_complete is single-threaded, so its CPU time is its wall time.
  double failure_cpu_s() const {
    return std::max(0.0, cpu_complete - cpu_failure - res.timing.audit_s);
  }
};

/// One timed harness API call.
struct Call {
  double t0 = 0.0;
  double t1 = 0.0;
  double cpu_s = 0.0;  ///< process CPU
};

struct BatchResult {
  CalLog cal;              ///< untraced pass only
  double wall_s = 0.0;     ///< API calls' wall, checks excluded
  double cpu_s = 0.0;      ///< API calls' process CPU, checks excluded
  std::vector<Call> calls;
  std::vector<RunObs> runs;
  RunObs snapshot;  ///< kWarm: the converge_snapshot call
  double snapshot_converge_s = 0.0;
  std::size_t checkpoint_bytes = 0;
  double t_start = 0.0;
  double t_end = 0.0;
};

/// Hooks for one run. `thread_cpu` reads the calling thread's CPU clock
/// instead of the process's (sweep runs share the process).
void install_hooks(harness::ExperimentConfig& cfg, RunObs& obs, bool traced, bool warm,
                   bool thread_cpu) {
  cfg.instrument = [&obs, traced](bgp::Network& net, std::uint64_t) {
    obs.t_instrument = now_s();
    obs.net = &net;
    if (!traced) return;
    if (net.parallel()) {
      obs.sink = std::make_unique<ProbeSink>(net, net.par_threads());
      net.set_sharded_trace_sink(obs.sink.get());
    } else {
      obs.sink = std::make_unique<ProbeSink>(net, 1);
      net.set_trace_sink(obs.sink.get());
    }
  };
  cfg.on_phase = [&obs, traced, thread_cpu](harness::RunPhase phase) {
    if (phase == harness::RunPhase::kColdStart) {
      obs.t_cold = now_s();
      obs.cpu_cold = cpu_s(thread_cpu);
    } else if (phase == harness::RunPhase::kFailure) {
      obs.t_failure = now_s();
      obs.cpu_failure = cpu_s(thread_cpu);
      obs.events_at_failure = obs.net->executed_events();
      if (traced) {
        const bool injected = obs.sink->first_failed_ns() != 0;
        obs.converge_last_ns = injected ? obs.sink->converge_last_ns() : obs.sink->last_ns();
        obs.converge_end_ns = injected ? obs.sink->first_failed_ns() : now_ns();
      }
    }
  };
  cfg.on_complete = [&obs, traced, warm, thread_cpu](bgp::Network& net, std::uint64_t) {
    obs.t_complete = now_s();
    obs.cpu_complete = cpu_s(thread_cpu);
    obs.digest = rib_digest(net);
    if (traced) {
      obs.failure_last_ns = obs.sink->last_ns();
      obs.paths = probe_paths(net);
      if (net.parallel()) obs.par = net.par_profile();
      if (warm) {
        const std::int64_t t0 = now_ns();
        const auto ck = bgp::capture_checkpoint(net, 0, 0.0);
        obs.capture_s = ns_to_s(now_ns() - t0);
      }
      net.set_trace_sink(nullptr);
      if (net.parallel()) net.set_sharded_trace_sink(nullptr);
    }
    obs.net = nullptr;
    obs.completed = true;
    obs.cpu_checked = cpu_s(thread_cpu);
    obs.t_checked = now_s();
  };
}

void record_failure(RunObs& obs, const std::exception& e) {
  obs.threw = true;
  obs.error = e.what();
}

/// Runs `call` as one timed API call of the batch: stamps obs's call and
/// return times and adds its wall and process CPU to the batch totals.
template <class F>
void timed_call(BatchResult& b, RunObs& obs, F&& call) {
  obs.t_call = now_s();
  const double cpu0 = cpu_s(false);
  try {
    call();
  } catch (const std::exception& e) {
    record_failure(obs, e);
  }
  obs.cpu_return = cpu_s(false);
  obs.t_return = now_s();
  b.wall_s += obs.t_return - obs.t_call;
  b.cpu_s += obs.cpu_return - cpu0;
  b.calls.push_back({obs.t_call, obs.t_return, obs.cpu_return - cpu0});
}

BatchResult run_batch(const Workload& w, bool traced) {
  BatchResult b;
  b.cal = CalLog{std::max({std::size_t{1}, w.par_threads, w.sweep_threads})};
  b.runs.resize(w.runs.size());
  std::vector<harness::ExperimentConfig> cfgs = w.runs;
  const bool warm = w.shape == Shape::kWarm;
  const bool sweep = w.shape == Shape::kSweep;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].par_profile = traced;
    install_hooks(cfgs[i], b.runs[i], traced, warm, sweep);
  }

  // The untraced pass calibrates before the batch and, for the serial
  // shapes, after every API call (sweep runs finish on pool threads).
  auto calibrate_between = [&] {
    if (!traced) b.cal.sample();
  };
  calibrate_between();
  b.t_start = now_s();
  switch (w.shape) {
    case Shape::kSerial:
      for (std::size_t i = 0; i < cfgs.size(); ++i) {
        timed_call(b, b.runs[i], [&] { b.runs[i].res = harness::run_experiment(cfgs[i]); });
        calibrate_between();
      }
      break;
    case Shape::kSweep:
      for (std::size_t first = 0; first < cfgs.size(); first += kSweepGroup) {
        const std::size_t last = std::min(cfgs.size(), first + kSweepGroup);
        const std::vector<harness::ExperimentConfig> group(cfgs.begin() + static_cast<std::ptrdiff_t>(first),
                                                           cfgs.begin() + static_cast<std::ptrdiff_t>(last));
        RunObs call;
        std::vector<harness::RunResult> results;
        timed_call(b, call, [&] { results = harness::run_sweep(group); });
        for (std::size_t i = 0; i < results.size(); ++i) b.runs[first + i].res = std::move(results[i]);
        for (std::size_t i = first; i < last; ++i) {
          if (call.threw && !b.runs[i].completed) {
            b.runs[i].threw = true;
            b.runs[i].error = call.error;
          }
        }
        calibrate_between();
      }
      break;
    case Shape::kWarm: {
      auto snap_cfg = cfgs[0];
      install_hooks(snap_cfg, b.snapshot, traced, warm, false);
      snap_cfg.on_complete = nullptr;  // converge_snapshot never completes a run
      std::optional<harness::Snapshot> snap;
      timed_call(b, b.snapshot, [&] { snap = harness::converge_snapshot(snap_cfg); });
      calibrate_between();
      if (snap.has_value()) {
        b.snapshot_converge_s = snap->converge_s;
        b.checkpoint_bytes = snap->checkpoint.state.size();
      }
      for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (!snap.has_value()) {
          b.runs[i].threw = true;
          b.runs[i].error = "no snapshot";
          continue;
        }
        timed_call(b, b.runs[i], [&] { b.runs[i].res = harness::run_experiment_from(cfgs[i], *snap); });
        calibrate_between();
      }
      break;
    }
  }
  b.t_end = now_s();
  // Digests and probes in on_complete are the benchmark's, not the
  // workload's; sweep checks run on sweep_threads executors at once.
  for (const auto& obs : b.runs) {
    if (!obs.completed) continue;
    b.wall_s -= obs.check_s() / static_cast<double>(w.sweep_threads);
    b.cpu_s -= obs.cpu_checked - obs.cpu_complete;
  }
  return b;
}

// ---------------------------------------------------------------------------
// Per-batch figures

struct BatchFigures {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  double converge_s = 0.0;  ///< wall
  double failure_s = 0.0;   ///< wall
  std::uint64_t events_converge = 0;
  std::uint64_t events_failure = 0;
  std::vector<double> run_walls;
  double scale = 1.0;  ///< batch's mean factor to reference speed (report only)
  // At reference speed, each interval scaled by the calibration samples
  // around it: setup, the batch's CPU, and the converge / failure phases.
  double setup_ref_s = 0.0;
  double cpu_ref_s = 0.0;
  double converge_cpu_ref_s = 0.0;
  double failure_cpu_ref_s = 0.0;

  std::uint64_t events() const { return events_converge + events_failure; }
};

BatchFigures figures(const Workload& w, const BatchResult& b) {
  BatchFigures f;
  f.wall_s = b.wall_s;
  f.cpu_s = b.cpu_s;
  f.scale = b.cal.factor();
  for (const Call& c : b.calls) f.cpu_ref_s += c.cpu_s * b.cal.factor(c.t0, c.t1);
  const bool warm = w.shape == Shape::kWarm;
  if (warm && !b.runs.empty() && b.runs[0].completed) {
    // Warm runs restore the snapshot's executed-event count. The snapshot's
    // converge CPU runs to converge_snapshot's return, so it includes the
    // checkpoint capture.
    const RunObs& s = b.snapshot;
    f.setup_s += s.setup_s();
    f.setup_ref_s += s.setup_s() * b.cal.factor(s.t_call, s.t_instrument);
    f.converge_s += b.snapshot_converge_s;
    f.events_converge += b.runs[0].events_at_failure;
    f.converge_cpu_ref_s += (s.cpu_return - s.cpu_cold) * b.cal.factor(s.t_cold, s.t_return);
  }
  for (const auto& obs : b.runs) {
    if (!obs.completed) continue;
    f.setup_s += obs.setup_s();
    f.setup_ref_s += obs.setup_s() * b.cal.factor(obs.t_begin(), obs.t_instrument);
    f.cpu_ref_s -= (obs.cpu_checked - obs.cpu_complete) * b.cal.factor(obs.t_complete, obs.t_checked);
    if (!warm) {
      f.converge_s += obs.res.timing.converge_s;
      f.events_converge += obs.events_at_failure;
      f.converge_cpu_ref_s +=
          (obs.cpu_failure - obs.cpu_cold) * b.cal.factor(obs.t_cold, obs.t_failure);
    }
    f.failure_s += obs.res.timing.failure_s;
    f.events_failure += obs.res.events - obs.events_at_failure;
    f.failure_cpu_ref_s += obs.failure_cpu_s() * b.cal.factor(obs.t_failure, obs.t_complete);
    f.run_walls.push_back(obs.res.timing.total_s - obs.check_s());
  }
  return f;
}

/// Result digest of one batch: per run, event and update counts, hexfloat
/// delays and the Loc-RIB FNV. Compared only between passes of the same
/// build, never against a pinned value.
std::uint64_t result_digest(const BatchResult& b) {
  std::uint64_t h = kFnvOffset;
  for (const auto& obs : b.runs) {
    mix(h, obs.completed ? 1 : 0);
    mix(h, obs.res.events);
    mix(h, obs.res.messages_total);
    mix(h, obs.res.messages_after_failure);
    mix(h, obs.res.messages_processed);
    mix(h, obs.res.batch_dropped);
    mix_double(h, obs.res.initial_convergence_s);
    mix_double(h, obs.res.convergence_delay_s);
    mix(h, obs.digest);
  }
  return h;
}

void print_digest(const char* pass, const BatchResult& b) {
  std::printf("digest %s %016" PRIx64 "\n", pass, result_digest(b));
  for (std::size_t i = 0; i < b.runs.size(); ++i) {
    const auto& r = b.runs[i].res;
    std::printf("  run %zu: events %" PRIu64 " updates %" PRIu64 " post-failure %" PRIu64
                " init %a delay %a rib %016" PRIx64 "\n",
                i, r.events, r.messages_total, r.messages_after_failure,
                r.initial_convergence_s, r.convergence_delay_s, b.runs[i].digest);
  }
}

// ---------------------------------------------------------------------------
// Spans (traced pass)

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = -1;
};

class SpanLog {
 public:
  int add(std::string name, double start, double end, int parent, int run) {
    spans_.push_back({std::move(name), start, std::max(start, end), parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Self time per span name: duration minus the union of its children.
  std::map<std::string, double> self_times() const {
    std::vector<std::vector<int>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) kids[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::vector<std::pair<double, double>> iv;
      for (const int k : kids[i]) iv.emplace_back(spans_[static_cast<std::size_t>(k)].start, spans_[static_cast<std::size_t>(k)].end);
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double cur_s = 0.0;
      double cur_e = -1.0;
      for (const auto& [s, e] : iv) {
        if (s > cur_e) {
          if (cur_e > cur_s) covered += cur_e - cur_s;
          cur_s = s;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_s) covered += cur_e - cur_s;
      out[spans_[i].name] += spans_[i].end - spans_[i].start - covered;
    }
    return out;
  }

  void write(const std::string& path, const std::string& stamp) const {
    std::ofstream os{path};
    os << stamp << "\n";
    char line[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof line,
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"parent\": %d, \"run\": %d}",
                    i, s.name.c_str(), s.start, s.end, s.parent, s.run);
      os << line << "\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Spans for one run, rebuilt after the batch from the hook timestamps
/// (so recording never runs on a pool thread).
void add_run_spans(SpanLog& log, const RunObs& obs, int parent, int run, bool warm) {
  if (!obs.completed) return;
  const double t0 = obs.t_begin();
  const int root = log.add("run", t0, obs.t_checked, parent, run);
  const double built = t0 + obs.res.timing.build_s;
  log.add("build", t0, built, root, run);
  if (obs.res.par_windows > 0) log.add("enable_parallel", built, obs.t_instrument, root, run);
  const double fail_end = obs.audit_start();
  if (warm) {
    log.add("restore", obs.t_instrument, obs.t_failure, root, run);
  } else {
    const int conv = log.add("converge", obs.t_cold, obs.t_failure, root, run);
    log.add("compact", ns_to_s(obs.converge_last_ns), ns_to_s(obs.converge_end_ns), conv, run);
  }
  const int fail = log.add("failure", obs.t_failure, fail_end, root, run);
  log.add("compact", ns_to_s(obs.failure_last_ns), fail_end, fail, run);
  log.add("audit", fail_end, obs.t_complete, root, run);
  const int check = log.add("check", obs.t_complete, obs.t_checked, root, run);
  if (warm) log.add("capture_checkpoint", obs.t_checked - obs.capture_s, obs.t_checked, check, run);
}

void add_batch_spans(SpanLog& log, const Workload& w, const BatchResult& b) {
  const int pass = log.add("traced_pass", b.t_start, b.t_end, -1, -1);
  const bool warm = w.shape == Shape::kWarm;
  switch (w.shape) {
    case Shape::kSerial:
      for (std::size_t i = 0; i < b.runs.size(); ++i) {
        const auto& obs = b.runs[i];
        const int call = log.add("run_experiment", obs.t_call, obs.t_return, pass, static_cast<int>(i));
        add_run_spans(log, obs, call, static_cast<int>(i), warm);
      }
      break;
    case Shape::kSweep:
      for (std::size_t c = 0; c < b.calls.size(); ++c) {
        const int call = log.add("run_sweep", b.calls[c].t0, b.calls[c].t1, pass, -1);
        for (std::size_t i = c * kSweepGroup; i < std::min(b.runs.size(), (c + 1) * kSweepGroup); ++i) {
          add_run_spans(log, b.runs[i], call, static_cast<int>(i), warm);
        }
      }
      break;
    case Shape::kWarm: {
      const auto& s = b.snapshot;
      const int call = log.add("converge_snapshot", s.t_call, s.t_return, pass, -1);
      log.add("build", s.t_call, s.t_instrument, call, -1);
      log.add("converge", s.t_cold, s.t_cold + b.snapshot_converge_s, call, -1);
      for (std::size_t i = 0; i < b.runs.size(); ++i) {
        const auto& obs = b.runs[i];
        const int c = log.add("run_experiment_from", obs.t_call, obs.t_return, pass, static_cast<int>(i));
        add_run_spans(log, obs, c, static_cast<int>(i), warm);
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// End-to-end metrics: medians over the untraced batches, host time scaled
/// to reference speed. Time per simulated event is host CPU time of all
/// threads: on a shared 4-vCPU host the partitioned engine's wall time swung
/// 20-35% between identical runs while its CPU time held within 9%.
std::vector<Metric> end_to_end(const std::vector<BatchFigures>& fs) {
  std::vector<double> setup;
  std::vector<double> cpu;
  std::vector<double> conv;
  std::vector<double> fail;
  for (const auto& f : fs) {
    setup.push_back(f.setup_ref_s);
    cpu.push_back(f.cpu_ref_s * 1e9 / static_cast<double>(f.events()));
    conv.push_back(f.converge_cpu_ref_s * 1e9 / static_cast<double>(f.events_converge));
    fail.push_back(f.failure_cpu_ref_s * 1e9 / static_cast<double>(f.events_failure));
  }
  return {
      {"setup_s", median(setup), "s"},
      {"cpu_ns_per_event", median(cpu), "ns"},
      {"converge_cpu_ns_per_event", median(conv), "ns"},
      {"failure_cpu_ns_per_event", median(fail), "ns"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const BatchResult& b, double untraced_wall,
                              double clock_overhead_ns) {
  const BatchFigures f = figures(w, b);
  std::array<std::uint64_t, bgp::TraceEvent::kNumKinds> counts{};
  std::uint64_t withdrawals = 0;
  std::uint64_t batch_items = 0;
  std::uint64_t queue_ops = 0;
  std::int64_t queue_ns = 0;
  std::vector<std::uint64_t> hist(kDepthCap + 1, 0);
  double build_s = 0.0;
  double audit_s = 0.0;
  double busy_s = 0.0;
  double enable_par_s = 0.0;
  double compact_s = 0.0;
  double restore_s = 0.0;
  double capture_s = 0.0;
  std::uint64_t interns = 0;
  std::int64_t intern_ns = 0;
  std::size_t distinct = 0;
  std::size_t table_bytes = 0;
  std::size_t routes = 0;
  std::size_t rib_bytes = 0;
  double low_water = 1.0;
  std::uint64_t windows = 0;
  std::uint64_t window_events = 0;
  std::uint64_t mailbox = 0;
  std::uint64_t reinterned = 0;
  double barrier = 0.0;
  double imbalance = 0.0;
  std::size_t par_runs = 0;

  auto add_sink = [&](const RunObs& obs) {
    if (!obs.sink) return;
    for (const auto& m : obs.sink->meters()) {
      for (std::size_t k = 0; k < counts.size(); ++k) counts[k] += m.counts[k];
      withdrawals += m.withdrawals_sent;
      batch_items += m.batch_items;
      queue_ops += m.queue_ops;
      queue_ns += m.queue_ns;
      for (std::size_t d = 0; d < hist.size(); ++d) hist[d] += m.depth_hist[d];
    }
  };
  const bool warm = w.shape == Shape::kWarm;
  if (warm) {
    add_sink(b.snapshot);
    build_s += b.snapshot.setup_s();
    busy_s += b.snapshot.t_return - b.snapshot.t_call;
  }
  for (const auto& obs : b.runs) {
    if (!obs.completed) continue;
    add_sink(obs);
    build_s += obs.res.timing.build_s;
    audit_s += obs.res.timing.audit_s;
    busy_s += obs.res.timing.total_s - (obs.t_checked - obs.t_complete);
    if (warm) {
      restore_s += obs.t_failure - obs.t_instrument;
      capture_s += obs.capture_s;
    } else {
      compact_s += ns_to_s(obs.converge_end_ns - obs.converge_last_ns);
    }
    if (obs.res.par_windows > 0) enable_par_s += obs.setup_s() - obs.res.timing.build_s;
    compact_s += std::max(0.0, obs.audit_start() - ns_to_s(obs.failure_last_ns));
    interns += obs.paths.interns;
    intern_ns += obs.paths.intern_ns;
    distinct = std::max(distinct, obs.paths.distinct_paths);
    table_bytes = std::max(table_bytes, obs.paths.table_bytes);
    routes += obs.paths.routes;
    rib_bytes += obs.paths.rib_bytes;
    low_water = std::min(low_water, obs.paths.capacity_low_water);
    if (!obs.par.empty()) {
      ++par_runs;
      windows += obs.par.windows();
      for (const auto e : obs.par.executed) window_events += e;
      for (const auto m : obs.par.mailbox_msgs) mailbox += m;
      for (const auto r : obs.par.reinterned) reinterned += r;
      barrier += obs.par.barrier_overhead_fraction();
      imbalance += obs.par.imbalance_factor();
    }
  }

  auto depth_pct = [&](double q) {
    std::uint64_t total = 0;
    for (const auto c : hist) total += c;
    if (total == 0) return 0.0;
    const auto want = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t d = 0; d < hist.size(); ++d) {
      seen += hist[d];
      if (seen >= std::max<std::uint64_t>(want, 1)) return static_cast<double>(d);
    }
    return static_cast<double>(kDepthCap);
  };
  auto count = [&](bgp::TraceEvent::Kind k) {
    return static_cast<double>(counts[static_cast<std::size_t>(k)]);
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  using K = bgp::TraceEvent::Kind;
  std::uint64_t trace_events = 0;
  for (const auto c : counts) trace_events += c;
  const double arrivals = count(K::kUpdateReceived) + count(K::kPeerDown);
  const double pool_threads = static_cast<double>(w.sweep_threads);
  const double par_n = static_cast<double>(std::max<std::size_t>(par_runs, 1));

  return {
      {"sim.events_converge", static_cast<double>(f.events_converge), "count"},
      {"sim.events_failure", static_cast<double>(f.events_failure), "count"},
      {"sim.ns_per_event_converge", ratio(f.converge_s * 1e9, static_cast<double>(f.events_converge)), "ns"},
      {"sim.ns_per_event_failure", ratio(f.failure_s * 1e9, static_cast<double>(f.events_failure)), "ns"},
      {"bgp.updates_received", count(K::kUpdateReceived), "count"},
      {"bgp.updates_sent", count(K::kUpdateSent), "count"},
      {"bgp.withdrawals_sent", static_cast<double>(withdrawals), "count"},
      {"bgp.batches", count(K::kBatchProcessed), "count"},
      {"bgp.batch_size_mean", ratio(static_cast<double>(batch_items), count(K::kBatchProcessed)), "count"},
      {"bgp.rib_changes", count(K::kRibChanged), "count"},
      {"bgp.mrai_starts", count(K::kMraiStarted), "count"},
      {"bgp.input_queue.useful_ratio", ratio(static_cast<double>(batch_items), arrivals), "ratio"},
      {"bgp.input_queue.depth_p50", depth_pct(0.50), "count"},
      {"bgp.input_queue.depth_p99", depth_pct(0.99), "count"},
      {"bgp.input_queue.ns_per_op",
       std::max(0.0, ratio(static_cast<double>(queue_ns), static_cast<double>(queue_ops)) - clock_overhead_ns), "ns"},
      {"bgp.path_table.distinct_paths", static_cast<double>(distinct), "count"},
      {"bgp.path_table.bytes", static_cast<double>(table_bytes), "bytes"},
      {"bgp.path_table.capacity_low_water", low_water, "ratio"},
      {"bgp.path_table.intern_ns", ratio(static_cast<double>(intern_ns), static_cast<double>(interns)), "ns"},
      {"bgp.path_table.compact_s", compact_s, "s"},
      {"bgp.rib.bytes_per_route", ratio(static_cast<double>(rib_bytes), static_cast<double>(routes)), "bytes"},
      {"bgp.enable_parallel_s", enable_par_s, "s"},
      {"bgp.par.windows", static_cast<double>(windows), "count"},
      {"bgp.par.events_per_window", ratio(static_cast<double>(window_events), static_cast<double>(windows)), "count"},
      {"bgp.par.barrier_overhead", barrier / par_n, "ratio"},
      {"bgp.par.imbalance", imbalance / par_n, "ratio"},
      {"bgp.par.mailbox_msgs", static_cast<double>(mailbox), "count"},
      {"bgp.par.reinterned", static_cast<double>(reinterned), "count"},
      {"bgp.checkpoint.capture_s", capture_s, "s"},
      {"bgp.checkpoint.restore_s", restore_s, "s"},
      {"bgp.checkpoint.bytes", static_cast<double>(b.checkpoint_bytes), "bytes"},
      {"harness.build_s", build_s, "s"},
      {"harness.audit_s", audit_s, "s"},
      {"harness.pool_utilization", ratio(busy_s, b.wall_s * pool_threads), "ratio"},
      {"obs.trace_events", static_cast<double>(trace_events), "count"},
      {"obs.trace_overhead_ratio", ratio(b.wall_s, untraced_wall), "ratio"},
  };
}

/// Mean cost of one clock read: a timed operation's interval also spans
/// one read, so this is subtracted from the per-operation queue timings.
double clock_overhead_ns() {
  constexpr int kReps = 200000;
  const std::int64_t t0 = now_ns();
  std::int64_t last = t0;
  for (int i = 0; i < kReps; ++i) last = now_ns();
  return static_cast<double>(last - t0) / kReps;
}

// ---------------------------------------------------------------------------
// Driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bgpbench: %s\nusage: bgpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed takes a non-negative integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string stamp_json(const Workload& w, const Args& a) {
  const char* commit = std::getenv("BGPBENCH_COMMIT");
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, \"trace\": %d, "
                "\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
                "\"runs_per_batch\": %zu, \"sweep_threads\": %zu, \"par_threads\": %zu, "
                "\"queue\": \"%s\"}",
                w.name.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
                std::thread::hardware_concurrency(), BGPBENCH_BUILD_TYPE, BGPBENCH_COMPILER,
                commit != nullptr && *commit != '\0' ? commit : "unknown", w.runs.size(),
                w.sweep_threads, w.par_threads, w.queue.c_str());
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) std::printf("  %-36s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    // A metric over zero events (every run failed) would be NaN, which JSON
    // cannot carry; such a result is already marked incorrect.
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), v, ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// Tallies runs that threw, failed the route audit, or (on a repeat of the
/// batch) changed their Loc-RIB digest or counts.
std::size_t count_failures(const BatchResult& b, const BatchResult* first) {
  std::size_t failed = 0;
  if (b.snapshot.threw) {
    std::fprintf(stderr, "bgpbench: converge_snapshot threw: %s\n", b.snapshot.error.c_str());
  }
  for (std::size_t i = 0; i < b.runs.size(); ++i) {
    const auto& obs = b.runs[i];
    bool bad = false;
    if (obs.threw || !obs.completed) {
      std::fprintf(stderr, "bgpbench: run %zu threw: %s\n", i, obs.error.c_str());
      bad = true;
    } else if (!obs.res.routes_valid) {
      std::fprintf(stderr, "bgpbench: run %zu failed the route audit: %s\n", i,
                   obs.res.audit_error.c_str());
      bad = true;
    } else if (first != nullptr) {
      const auto& ref = first->runs[i];
      if (ref.digest != obs.digest || ref.res.events != obs.res.events ||
          ref.res.messages_total != obs.res.messages_total ||
          ref.res.convergence_delay_s != obs.res.convergence_delay_s) {
        std::fprintf(stderr, "bgpbench: run %zu changed its result on a repeat\n", i);
        bad = true;
      }
    }
    if (bad) ++failed;
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  auto workload = make_workload(args.workload, args.seed);
  if (!workload) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *workload;

  // The workload fixes its own parallelism: legacy serial unless a config
  // asks for partitions, and the sweep pool degree for kSweep.
  ::unsetenv("BGPSIM_PAR_THREADS");
  ::setenv("BGPSIM_THREADS", std::to_string(w.sweep_threads).c_str(), 1);

  const std::string stamp = stamp_json(w, args);
  std::printf("bgpbench %s\n", stamp.c_str());

  const bool rss_reset = reset_peak_rss();
  if (!rss_reset) {
    std::printf("warning: VmHWM reset refused; peak_rss_bytes is the process-wide peak\n");
  }

  // Untraced pass: repeat the batch until the time budget (half of it when
  // a traced pass follows) is spent; at least one batch.
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const double t0 = now_s();
  std::optional<BatchResult> first;  // the reference every repeat must match
  std::vector<BatchFigures> figs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  do {
    BatchResult b = run_batch(w, false);
    attempted += b.runs.size();
    failed += count_failures(b, first ? &*first : nullptr);
    figs.push_back(figures(w, b));
    if (!first) first = std::move(b);
  } while (now_s() - t0 < budget);
  const double peak_rss = peak_rss_bytes();
  print_digest("untraced", *first);
  std::printf("batches %zu, runs %zu, failed %zu, peak RSS %s\n", figs.size(), attempted, failed,
              rss_reset ? "per workload" : "process-wide");

  std::vector<double> run_walls;
  for (const auto& f : figs) run_walls.insert(run_walls.end(), f.run_walls.begin(), f.run_walls.end());
  auto median_of = [&figs](double BatchFigures::*field) {
    std::vector<double> v;
    for (const auto& f : figs) v.push_back(f.*field);
    return median(v);
  };
  std::printf("raw host time (median over batches): wall %.4f s, cpu %.4f s, converge %.4f s, "
              "failure %.4f s, setup %.6f s; events %" PRIu64 "; reference-speed scale %.4f\n",
              median_of(&BatchFigures::wall_s), median_of(&BatchFigures::cpu_s),
              median_of(&BatchFigures::converge_s),
              median_of(&BatchFigures::failure_s), median_of(&BatchFigures::setup_s),
              figs.front().events(), median_of(&BatchFigures::scale));
  std::printf("per-run wall over %zu runs: p50 %.4f s, p90 %.4f s\n", run_walls.size(),
              percentile(run_walls, 0.5), percentile(run_walls, 0.9));

  std::vector<Metric> metrics;
  bool correct = failed == 0;
  if (!args.trace) {
    metrics = end_to_end(figs);
    print_metrics("end-to-end (untraced):", metrics);
  } else {
    const double overhead = clock_overhead_ns();
    const BatchResult traced = run_batch(w, true);
    attempted += traced.runs.size();
    failed += count_failures(traced, &*first);
    print_digest("traced", traced);
    if (result_digest(traced) != result_digest(*first)) {
      std::fprintf(stderr, "bgpbench: traced pass did not reproduce the untraced digest\n");
      correct = false;
    }
    metrics = per_layer(w, traced, median_of(&BatchFigures::wall_s), overhead);
    metrics.push_back({"mem.peak_rss_bytes", peak_rss, "bytes"});
    print_metrics("per-layer (traced):", metrics);

    SpanLog log;
    add_batch_spans(log, w, traced);
    std::printf("span self time (s):\n");
    for (const auto& [name, self] : log.self_times()) std::printf("  %-24s %.6f\n", name.c_str(), self);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path =
        args.out_dir + "/spans-" + w.name + "-seed" + std::to_string(args.seed) + ".jsonl";
    log.write(path, stamp);
    std::printf("spans written to %s\n", path.c_str());
  }
  correct = correct && failed == 0;

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
