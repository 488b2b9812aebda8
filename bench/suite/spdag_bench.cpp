// spdag_bench: the measuring half of the benchmark (run.py is the other).
//
//   spdag_bench --workload fanin|churn|bfs|service --seed N --seconds S
//               [--trace 0|1] [--smoke] [--trace-out PATH]
//
// One process runs one workload. Inputs come from --seed; every rep checks
// its output against an oracle in this file; measurement rotates through
// the workload's phases until --seconds have passed and every phase has at
// least min_reps reps. The process prints one JSON document (report.hpp)
// and leaves all statistics to run.py.
//
// --trace 0 measures what a user of spdag sees, on the default
// runtime_config. --trace 1 first repeats a short untraced reference, then
// runs the same workload with the layer probes of probes.hpp attached and
// the library's trace counters on, and writes bench-owned spans to
// --trace-out as Chrome trace-event JSON.

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/bfs.hpp"
#include "dag/future.hpp"
#include "dag/parallel_for.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "sched/runtime.hpp"
#include "service/service.hpp"

namespace {

using namespace spdag;
using spdag_bench::layer_slots;
using spdag_bench::layer_time;
using spdag_bench::mix64;
using spdag_bench::now_ns;
using spdag_bench::per_thread;
using spdag_bench::report;
using spdag_bench::rng;
using spdag_bench::span;
using spdag_bench::tally;
using spdag_bench::timed_registry;
using spdag_bench::timed_runtime;

constexpr int min_reps = 3;
constexpr int warmup_reps = 2;
constexpr int setups = 5;  // fresh set-ups per run; setup_s is their median

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  std::string trace_out;
};

// Worker count of the "full P" configuration. The benchmark is sized for a
// 4-core machine (at most 4 threads run work); fewer on a smaller one.
std::size_t full_p() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// Runs each phase `warmups` times unmeasured, calls `warm` once, then
// rotates through the phases (so slow drift on the machine lands on all of
// them alike) until `seconds` have passed and each phase ran at least
// min_reps measured reps.
using phase = std::function<void(bool measured)>;

void rotate(double seconds, const std::vector<phase>& ph, int warmups,
            const std::function<void()>& warm) {
  for (int w = 0; w < warmups; ++w) {
    for (const auto& p : ph) p(false);
  }
  if (warm) warm();
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < min_reps || seconds_since(t0) < seconds;
       ++round) {
    for (const auto& p : ph) p(true);
  }
}

// A field of /proc/self/status in KiB ("VmRSS:", "VmHWM:"), or 0.
double status_kib(const char* field) {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    const std::size_t len = std::strlen(field);
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, field, len) == 0) {
        kib = std::strtod(line + len, nullptr);
        break;
      }
    }
    std::fclose(f);
  }
  return kib;
}

// Peak RSS that spdag adds over the bench's own data. mark() runs once the
// inputs, oracles and stamp buffers exist: it resets the kernel's high-water
// mark to the current RSS (clear_refs "5", Linux 4.0+), so build-time
// temporaries are forgotten, and keeps that RSS as the baseline. record()
// runs after set-up and warm-up, before the time-bounded reps: the library's
// footprint can keep growing with the number of passes (SNZI child pairs
// accumulate at full P), and a peak that depends on how many passes fit
// into --seconds would penalize a faster runtime. getrusage's ru_maxrss is
// not used: it cannot be reset, and it survives execve, so it would include
// the RSS of the process that spawned this one.
class rss_meter {
 public:
  void mark(report& r) {
    bool reset = false;
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
      reset = std::fputs("5", f) >= 0;
      reset = std::fclose(f) == 0 && reset;
    }
    r.check("peak_rss.baseline", reset,
            reset ? "high-water mark reset after the inputs were built"
                  : "cannot reset the high-water mark");
    base_kib_ = status_kib("VmRSS:");
  }
  void record(report& r) const {
    r.value("peak_rss_mb", (status_kib("VmHWM:") - base_kib_) / 1024.0);
  }

 private:
  double base_kib_ = 0;
};

struct pass_result {
  bool ok;
  std::int64_t start;  // steady_clock ns when the call into spdag began
  std::int64_t ns;     // wall time of that call only
};

// Failed passes per oracle, folded into one check row per workload.
class oracle_book {
 public:
  oracle_book(report& r, std::string name) : r_(r), name_(std::move(name)) {}
  oracle_book(const oracle_book&) = delete;
  oracle_book& operator=(const oracle_book&) = delete;

  void pass(bool ok, std::uint64_t items) {
    ++passes_;
    if (!ok) ++failed_;
    r_.ops(items, ok ? 0 : items);
  }
  ~oracle_book() {
    r_.check(name_, failed_ == 0,
             std::to_string(failed_) + " of " + std::to_string(passes_) +
                 " passes failed");
  }

 private:
  report& r_;
  std::string name_;
  std::uint64_t passes_ = 0;
  std::uint64_t failed_ = 0;
};

// --- fanin and churn ---------------------------------------------------------
// Leaf i of n carries mix64(key ^ i), with the key drawn from the seed. Each
// leaf adds its value to its thread's tally slot; the oracle is the count n
// and the serial sum.

struct keyed_input {
  keyed_input(std::uint64_t leaves, std::uint64_t seed)
      : n(leaves), key(mix64(seed)) {
    for (std::uint64_t i = 0; i < n; ++i) expect += mix64(key ^ i);
  }
  std::uint64_t n;
  std::uint64_t key;
  std::uint64_t expect = 0;
};

// Runs `root` as one dag and checks the leaves' tallies against `in`.
template <typename RT, typename F>
pass_result tallied_pass(RT& rt, per_thread<tally>& tallies,
                         const keyed_input& in, F root) {
  tallies.reset();
  const std::int64_t t0 = now_ns();
  rt.run(std::move(root));
  const std::int64_t ns = now_ns() - t0;
  const tally got = tallies.sum();
  return {got.count == in.n && got.sum == in.expect, t0, ns};
}

// The paper's Fig. 8 shape: n empty leaves under one finish through
// parallel_for(grain 1).
class fanin_workload {
 public:
  fanin_workload(std::uint64_t seed, bool smoke)
      : big_(smoke ? 1 << 14 : 1 << 20, seed),
        small_(smoke ? 1 << 8 : 1 << 10, seed + 1) {}

  template <typename RT>
  pass_result pass(RT& rt, bool small) {
    const keyed_input& in = small ? small_ : big_;
    const std::uint64_t n = in.n;
    const std::uint64_t key = in.key;
    per_thread<tally>* tp = &tallies_;
    auto leaf = [key, tp](std::size_t i) {
      tally& s = tp->mine();
      ++s.count;
      s.sum += mix64(key ^ i);
    };
    return tallied_pass(rt, tallies_, in, [n, leaf] {
      finish_then([n, leaf] { parallel_for(0, n, 1, leaf); }, [] {});
    });
  }

  // Counter operations, the paper's convention: one arrive and one depart
  // per leaf.
  std::uint64_t items(bool small) const {
    return 2 * (small ? small_ : big_).n;
  }
  std::uint64_t registrations(bool) const { return 0; }
  std::uint64_t runs_per_pass() const { return 1; }

 private:
  keyed_input big_;
  keyed_input small_;
  per_thread<tally> tallies_;
};

// n independent futures under one root: a fork2 tree whose leaves are each
// a fork2_future whose consumer registers one future_then, which tallies the
// delivered value.

void churn_rec(std::uint64_t lo, std::uint64_t hi, std::uint64_t key,
               per_thread<tally>* tp) {
  if (hi - lo >= 2) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    fork2([lo, mid, key, tp] { churn_rec(lo, mid, key, tp); },
          [mid, hi, key, tp] { churn_rec(mid, hi, key, tp); });
  } else if (hi - lo == 1) {
    auto produce = [key, lo] { return mix64(key ^ lo); };
    auto consume = [tp](future<std::uint64_t> f) {
      future_then(f, [tp](std::uint64_t v) {
        tally& s = tp->mine();
        ++s.count;
        s.sum += v;
      });
    };
    fork2_future<std::uint64_t>(produce, consume);
  }
}

class churn_workload {
 public:
  churn_workload(std::uint64_t seed, bool smoke)
      : big_(smoke ? 1 << 12 : 1 << 18, seed),
        small_(smoke ? 1 << 6 : 1 << 8, seed + 1) {}

  template <typename RT>
  pass_result pass(RT& rt, bool small) {
    const keyed_input& in = small ? small_ : big_;
    const std::uint64_t n = in.n;
    const std::uint64_t key = in.key;
    per_thread<tally>* tp = &tallies_;
    return tallied_pass(rt, tallies_, in,
                        [n, key, tp] { churn_rec(0, n, key, tp); });
  }

  std::uint64_t items(bool small) const { return (small ? small_ : big_).n; }
  std::uint64_t registrations(bool small) const { return items(small); }
  std::uint64_t runs_per_pass() const { return 1; }

 private:
  keyed_input big_;
  keyed_input small_;
  per_thread<tally> tallies_;
};

// --- bfs --------------------------------------------------------------------
// apps::bfs_run with its default config (batched fan-out) from vertex 0.
// The graph is generated here, not by apps::make_bfs_graph, so a change to
// src/apps cannot change the input; the oracle is a serial BFS.

apps::bfs_graph make_graph(std::uint64_t n, std::uint64_t avg_degree,
                           std::uint64_t seed) {
  rng r{mix64(seed ^ 0xb5f)};
  std::vector<std::uint32_t> degree(n);
  for (std::uint64_t u = 0; u < n; ++u) {
    degree[u] = static_cast<std::uint32_t>(r.below(2 * avg_degree + 1));
  }
  // Vertex 0 also links to every stride-th vertex, so the traversal covers
  // the giant component in few levels from a fixed source.
  std::uint64_t stride = 1;
  while (stride * stride < n) ++stride;
  const std::uint64_t anchors = (n + stride - 1) / stride;
  apps::bfs_graph g;
  g.offsets.resize(n + 1);
  g.offsets[0] = 0;
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint64_t d = degree[u] + (u == 0 ? anchors : 0);
    g.offsets[u + 1] = g.offsets[u] + static_cast<std::uint32_t>(d);
  }
  g.targets.resize(g.offsets[n]);
  std::uint32_t* out = g.targets.data();
  for (std::uint64_t a = 0; a < n; a += stride) {
    *out++ = static_cast<std::uint32_t>(a);
  }
  for (std::uint64_t u = 0; u < n; ++u) {
    for (std::uint32_t e = 0; e < degree[u]; ++e) {
      *out++ = static_cast<std::uint32_t>(r.below(n));
    }
  }
  return g;
}

std::vector<std::int32_t> serial_bfs(const apps::bfs_graph& g) {
  const std::uint64_t n = g.vertex_count();
  std::vector<std::int32_t> dist(n, -1);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  dist[0] = 0;
  queue.push_back(0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const std::uint32_t v = g.targets[e];
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

class bfs_workload {
 public:
  bfs_workload(std::uint64_t seed, bool smoke)
      : big_(smoke ? 1 << 14 : 1 << 21, seed),
        small_(smoke ? 1 << 10 : 1 << 12, seed + 1) {}

  pass_result pass(runtime& rt, bool small) {
    const input& in = small ? small_ : big_;
    const std::int64_t t0 = now_ns();
    const std::vector<std::int32_t> dist = apps::bfs_run(rt, in.g);
    const std::int64_t ns = now_ns() - t0;
    return {dist == in.dist, t0, ns};
  }

  // Edges the traversal scans: the out-degrees of every reached vertex.
  std::uint64_t items(bool small) const {
    return (small ? small_ : big_).edges;
  }
  std::uint64_t registrations(bool) const { return 0; }
  // bfs_run calls rt.run once per non-empty frontier: once per level.
  std::uint64_t runs_per_pass() const {
    return static_cast<std::uint64_t>(big_.levels);
  }
  std::int32_t levels() const { return big_.levels; }

 private:
  struct input {
    input(std::uint64_t n, std::uint64_t seed)
        : g(make_graph(n, 8, seed)), dist(serial_bfs(g)) {
      for (std::uint64_t u = 0; u < n; ++u) {
        if (dist[u] < 0) continue;
        edges += g.offsets[u + 1] - g.offsets[u];
        levels = std::max(levels, dist[u] + 1);
      }
    }
    apps::bfs_graph g;
    std::vector<std::int32_t> dist;
    std::uint64_t edges = 0;
    std::int32_t levels = 0;
  };

  input big_;
  input small_;
};

// --- e2e run of the three compute workloads --------------------------------

template <typename W>
void run_e2e(W& w, const char* oracle, const options& o, report& r) {
  oracle_book book(r, oracle);
  rss_meter rss;
  rss.mark(r);
  // Set-up as a user pays it: a fresh 1-worker runtime and its first, cold
  // pass (P=1, because a cold pass at full P is bimodal).
  for (int k = 0; k < setups; ++k) {
    const std::int64_t t0 = now_ns();
    runtime rt({.workers = 1});
    const pass_result p = w.pass(rt, false);
    r.rep("setup_s", seconds_since(t0));
    book.pass(p.ok, w.items(false));
  }

  runtime rt_p({.workers = full_p()});
  runtime rt_1({.workers = 1});
  const double items = static_cast<double>(w.items(false));
  const int dags_per_rep = o.smoke ? 120 : 256;
  auto full = [&](bool measured) {
    const pass_result p = w.pass(rt_p, false);
    book.pass(p.ok, w.items(false));
    if (!measured) return;
    r.rep("throughput", items / (p.ns * 1e-9));
    r.rep("full_pass_s", p.ns * 1e-9);  // run.py tells fanin's modes apart
  };
  auto single = [&](bool measured) {
    const pass_result p = w.pass(rt_1, false);
    book.pass(p.ok, w.items(false));
    if (measured) r.rep("throughput_p1", items / (p.ns * 1e-9));
  };
  // Closed loop, one caller: each small dag is due when the previous one
  // returns.
  auto small = [&](bool measured) {
    std::vector<std::int64_t> lat;
    lat.reserve(dags_per_rep);
    for (int i = 0; i < dags_per_rep; ++i) {
      const pass_result p = w.pass(rt_p, true);
      book.pass(p.ok, w.items(true));
      lat.push_back(p.ns);
    }
    if (measured) r.series("latency_ns") = std::move(lat);
  };
  // A 1-worker pass is the shortest and the most sensitive to contention on
  // the shared last-level cache, so it runs twice per round: its reps then
  // sample more of the run's time.
  rotate(o.seconds, {full, single, small, single}, warmup_reps,
         [&] { rss.record(r); });
}

// --- traced run -------------------------------------------------------------

// Monotone counters of the library's public stats structs, read at the two
// ends of the traced window.
struct ledger {
  std::uint64_t executions = 0, edges = 0, incs = 0, decs = 0;
  std::uint64_t sched_execs = 0, steals = 0, failed_sweeps = 0, parks = 0;
  std::uint64_t adds = 0, retries = 0, rejected_adds = 0;
  std::uint64_t allocs = 0, frees = 0, recycles = 0, remote_frees = 0;
  std::uint64_t slab_growths = 0;
};

template <typename RT>
ledger read_ledger(RT& rt) {
  ledger l;
  const engine_stats& e = rt.engine().stats();
  l.executions = e.executions.load();
  l.edges = e.edges.load();
  l.incs = e.counter_incs.load();
  l.decs = e.counter_decs.load();
  const scheduler_totals s = rt.sched().totals();
  l.sched_execs = s.executions;
  l.steals = s.steals;
  l.failed_sweeps = s.failed_steal_sweeps;
  l.parks = s.parks;
  const outset_totals t = rt.outsets().totals();
  l.adds = t.adds;
  l.retries = t.add_cas_retries;
  l.rejected_adds = t.rejected_adds;
  const pool_stats p = rt.pools().totals();
  l.allocs = p.allocs;
  l.frees = p.frees;
  l.recycles = p.recycles;
  l.remote_frees = p.remote_frees;
  l.slab_growths = p.slab_growths;
  return l;
}

ledger operator-(const ledger& a, const ledger& b) {
  ledger d;
  d.executions = a.executions - b.executions;
  d.edges = a.edges - b.edges;
  d.incs = a.incs - b.incs;
  d.decs = a.decs - b.decs;
  d.sched_execs = a.sched_execs - b.sched_execs;
  d.steals = a.steals - b.steals;
  d.failed_sweeps = a.failed_sweeps - b.failed_sweeps;
  d.parks = a.parks - b.parks;
  d.adds = a.adds - b.adds;
  d.retries = a.retries - b.retries;
  d.rejected_adds = a.rejected_adds - b.rejected_adds;
  d.allocs = a.allocs - b.allocs;
  d.frees = a.frees - b.frees;
  d.recycles = a.recycles - b.recycles;
  d.remote_frees = a.remote_frees - b.remote_frees;
  d.slab_growths = a.slab_growths - b.slab_growths;
  return d;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The probes and the window they observe.
struct traced_window {
  layer_slots slots;
  snzi::tree_stats snzi;
  ledger start;
  std::uint64_t dags = 0;           // passes, or service submissions
  std::uint64_t runs = 0;           // root dags the scheduler ran
  std::uint64_t items = 0;          // workload items over the window
  std::uint64_t registrations = 0;  // future_then calls over the window
  double span_s = 0;                // summed `run` spans

  template <typename RT>
  void open(RT& rt) {
    start = read_ledger(rt);
    slots.reset();
    snzi.reset();
    obs::tracer::instance().reset();
  }

  // Per-layer values (run.py adds the percentile and reference-derived
  // ones). Layers a workload does not reach, or that the public API cannot
  // observe on it, read 0.
  template <typename RT>
  void close(RT& rt, report& r) {
    const ledger d = read_ledger(rt) - start;
    const layer_time lt = slots.sum();
    const obs::trace_summary tr = obs::tracer::instance().summary();
    const double worker_s = span_s * static_cast<double>(rt.workers());
    const double counter_s = (lt.arrive_ns + lt.depart_ns) * 1e-9;
    const double mem_s = (lt.alloc_ns + lt.free_ns) * 1e-9;
    const double ops = static_cast<double>(d.incs + d.decs);
    const double n = static_cast<double>(dags);

    r.value("incounter.ops", ratio(ops, n));
    r.value("incounter.arrive_ns", ratio(lt.arrive_ns, lt.arrives));
    r.value("incounter.depart_ns", ratio(lt.depart_ns, lt.departs));
    r.value("incounter.busy_frac", ratio(counter_s, worker_s));
    r.value("incounter.cas_failures_per_op",
            ratio(snzi.cas_failures.load(), ops));
    // Child pairs actually installed; grow_calls counts every coin flip.
    r.value("incounter.grows_per_kop",
            ratio(1000.0 * (snzi.grow_allocs + snzi.grow_reuses), ops));

    r.value("dag.executions", ratio(d.executions, n));
    r.value("dag.ns_per_vertex", ratio(tr.work_s * 1e9, d.executions));
    r.value("dag.counter_ops_per_edge", ratio(ops, 2.0 * d.edges));
    r.value("dag.self_frac",
            std::max(0.0, ratio(tr.work_s - counter_s - mem_s, worker_s)));

    r.value("sched.work_frac", ratio(tr.work_s, worker_s));
    r.value("sched.steal_frac", ratio(tr.steal_s, worker_s));
    r.value("sched.idle_frac",
            std::max(0.0, 1.0 - ratio(tr.work_s + tr.steal_s + tr.drain_s,
                                      worker_s)));
    r.value("sched.steals_per_kexec", ratio(1000.0 * d.steals, d.sched_execs));
    r.value("sched.failed_sweeps_per_kexec",
            ratio(1000.0 * d.failed_sweeps, d.sched_execs));
    r.value("sched.parks_per_run", ratio(d.parks, runs));

    r.value("outset.adds", ratio(d.adds, n));
    r.value("outset.retries_per_add", ratio(d.retries, d.adds));
    r.value("outset.ready_bypass_frac",
            registrations == 0 ? 0.0
                               : ratio(static_cast<double>(registrations) -
                                           d.adds - d.rejected_adds,
                                       registrations));

    r.value("mem.alloc_ns", ratio(lt.alloc_ns, lt.allocs));
    r.value("mem.free_ns", ratio(lt.free_ns, lt.frees));
    r.value("mem.busy_frac", ratio(mem_s, worker_s));
    r.value("mem.allocs_per_item", ratio(d.allocs, items));
    r.value("mem.recycle_rate", ratio(d.recycles, d.allocs));
    r.value("mem.remote_free_frac", ratio(d.remote_frees, d.frees));
    r.value("mem.slab_growths", static_cast<double>(d.slab_growths));
    double retained = 0;
    for (const pool_registry_row& row : rt.pools().rows()) {
      retained += static_cast<double>(row.stats.retained() * row.object_bytes);
    }
    r.value("mem.retained_mb", retained / (1 << 20));
    r.value("workers", static_cast<double>(rt.workers()));
  }
};

// Decorations a runtime_config can carry: the pool registry and out-set
// factory through engine_options, SNZI stats, and the trace counters. For
// workloads whose entry point takes a runtime& (apps::bfs_run) or builds
// its own (dag_service), the counter factory cannot be swapped, so the
// counter layer is reported by counts only.
class decorated_config {
 public:
  explicit decorated_config(traced_window& w)
      : w_(w),
        pools_(make_pool_registry("pool"), &w.slots),
        outsets_(make_outset_factory("simple", &pools_)) {}

  runtime_config config(std::size_t workers) {
    runtime_config c;
    c.workers = workers;
    c.snzi_stats = &w_.snzi;
    c.engine_options.outsets = outsets_.get();
    c.engine_options.pools = &pools_;
    c.trace = "counters";
    return c;
  }

 private:
  traced_window& w_;
  timed_registry pools_;
  std::unique_ptr<outset_factory> outsets_;
};

// Untraced reference for obs.overhead_frac and sched.scaling_eff, plus the
// empty-dag round trip (wake, run, park) of a warm runtime.
template <typename W>
void run_reference(W& w, oracle_book& book, double seconds, report& r) {
  runtime rt_p({.workers = full_p()});
  runtime rt_1({.workers = 1});
  const double items = static_cast<double>(w.items(false));
  auto full = [&](bool measured) {
    const pass_result p = w.pass(rt_p, false);
    book.pass(p.ok, w.items(false));
    if (measured) r.rep("obs.untraced_throughput", items / (p.ns * 1e-9));
  };
  auto single = [&](bool measured) {
    const pass_result p = w.pass(rt_1, false);
    book.pass(p.ok, w.items(false));
    if (measured) r.rep("sched.untraced_throughput_p1", items / (p.ns * 1e-9));
  };
  rotate(seconds, {full, single}, 1, nullptr);
  std::vector<std::int64_t>& empty = r.series("sched.run_empty_ns");
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t0 = now_ns();
    rt_p.run([] {});
    empty.push_back(now_ns() - t0);
  }
}

template <typename W, typename RT>
void run_traced_window(W& w, RT& rt, traced_window& win, oracle_book& book,
                       double seconds, report& r) {
  const double items = static_cast<double>(w.items(false));
  auto traced = [&](bool measured) {
    const pass_result p = w.pass(rt, false);
    book.pass(p.ok, w.items(false));
    if (!measured) return;
    r.add_span({"run", 0, p.start, p.start + p.ns, -1});
    r.rep("obs.traced_throughput", items / (p.ns * 1e-9));
    win.span_s += p.ns * 1e-9;
    win.dags += 1;
    win.runs += w.runs_per_pass();
    win.items += w.items(false);
    win.registrations += w.registrations(false);
  };
  rotate(seconds, {traced}, 1, [&] { win.open(rt); });
  win.close(rt, r);
}

template <typename W>
void run_traced_compute(W& w, const char* oracle, const options& o, report& r) {
  oracle_book book(r, oracle);
  run_reference(w, book, o.seconds * 0.4, r);
  traced_window win;
  obs::tracer::instance().configure("counters");
  timed_runtime rt(full_p(), &win.slots, &win.snzi);
  run_traced_window(w, rt, win, book, o.seconds * 0.6, r);
}

void run_traced_bfs(bfs_workload& w, const options& o, report& r) {
  oracle_book book(r, "bfs.serial_oracle");
  run_reference(w, book, o.seconds * 0.4, r);
  traced_window win;
  decorated_config dc(win);
  runtime rt(dc.config(full_p()));
  run_traced_window(w, rt, win, book, o.seconds * 0.6, r);
  r.value("apps.levels", w.levels());
  r.value("apps.ms_per_level",
          1e3 * win.span_s / static_cast<double>(win.dags * w.levels()));
}

// --- service ----------------------------------------------------------------
// A resident dag_service. Each submission is a 3-leaf fork2 tree under a
// finish whose continuation stamps completion; the root body stamps its
// start. All stamps are bench-owned steady_clock reads, so latency is exact
// (the service's own histograms have power-of-two bins).

struct stamps {
  std::vector<std::int64_t> due, sub0, sub1, root, done;
  explicit stamps(std::size_t n)
      : due(n, 0), sub0(n, 0), sub1(n, 0), root(n, 0), done(n, 0) {}
};

struct job_ctx {
  std::int64_t* root;
  std::int64_t* done;
  per_thread<tally>* leaves;
};

void leaf3(per_thread<tally>* lv) {
  auto leaf = [lv] { ++lv->mine().count; };
  fork2(leaf, [lv, leaf] { fork2(leaf, leaf); });
}

class service_workload {
 public:
  // Reps are short (about a quarter second each) so a run holds many of
  // them: a stall lands in one rep's tail, and the median over reps
  // ignores it.
  service_workload(std::uint64_t seed, bool smoke)
      : seed_(seed),
        open_n_(smoke ? 2500 : 12500),
        closed_n_(smoke ? 10000 : 50000),
        cold_n_(smoke ? 2000 : 20000) {}

  std::size_t open_n() const { return open_n_; }
  std::size_t closed_n() const { return closed_n_; }
  std::size_t cold_n() const { return cold_n_; }

  // Open loop: Poisson arrivals at `rate` per second, each timed from its
  // due time. Returns true when every ticket completed and was stamped.
  bool open_loop(dag_service& svc, double rate, std::uint64_t rep, stamps& s) {
    rng r{mix64(seed_ * 0x100000001b3ULL + rep)};
    const double mean_gap_ns = 1e9 / rate;
    const std::int64_t t0 = now_ns() + 200000;
    double at = 0;
    for (std::size_t i = 0; i < s.due.size(); ++i) {
      at += -std::log(r.unit()) * mean_gap_ns;
      s.due[i] = t0 + static_cast<std::int64_t>(at);
    }
    // The generator's sleeps must end on time: the default 50 us timer
    // slack would be charged to the service as latency. Only this thread's
    // slack changes; the service's threads already exist and keep theirs.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const bool ok = drive(svc, s, true);
    prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
    return ok;
  }

  // Closed loop with window max_inflight: one client submits back to back
  // and admission blocks it whenever 1024 submissions are in flight.
  bool closed_loop(dag_service& svc, stamps& s) { return drive(svc, s, false); }

 private:
  static void wait_until(std::int64_t due) {
    for (;;) {
      const std::int64_t left = due - now_ns();
      if (left <= 0) return;
      if (left > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
      }
    }
  }

  bool drive(dag_service& svc, stamps& s, bool paced) {
    const std::size_t n = s.due.size();
    std::fill(s.root.begin(), s.root.end(), 0);
    std::fill(s.done.begin(), s.done.end(), 0);
    leaves_.reset();
    job_ctx ctx{s.root.data(), s.done.data(), &leaves_};
    const job_ctx* c = &ctx;
    // Tickets are waited on in submission order once the ring wraps; at
    // most max_inflight (1024) are incomplete, so these waits do not block
    // the generator.
    std::vector<ticket> ring(4096);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (paced) wait_until(s.due[i]);
      ticket& slot = ring[i % ring.size()];
      if (slot.valid()) ok &= slot.wait();
      s.sub0[i] = now_ns();
      if (!paced) s.due[i] = s.sub0[i];
      slot = svc.submit([c, i] {
        c->root[i] = now_ns();
        finish_then([lv = c->leaves] { leaf3(lv); },
                    [c, i] { c->done[i] = now_ns(); });
      });
      s.sub1[i] = now_ns();
      ok &= slot.valid();
    }
    for (ticket& t : ring) {
      if (t.valid()) ok &= t.wait();
    }
    for (std::size_t i = 0; i < n; ++i) {
      ok &= s.due[i] <= s.sub0[i] && s.sub0[i] <= s.root[i] &&
            s.root[i] <= s.done[i];
    }
    return ok && leaves_.sum().count == 3 * n;
  }

  std::uint64_t seed_;
  std::size_t open_n_;
  std::size_t closed_n_;
  std::size_t cold_n_;
  per_thread<tally> leaves_;
};

// Submissions/s of the open-loop phase: about a quarter of the 2-worker
// saturation throughput (about 200k/s). Nearer saturation, a stall of any
// service thread takes longer to drain, and the latency tail magnifies the
// host's scheduling noise (README, the service workload).
constexpr double offered_rate = 50000;
constexpr std::size_t service_workers = 2;

// Open-loop samples go to run.py in windows of this many consecutive
// submissions (50 ms at 50k/s), and each percentile is taken per window.
// The host can stall a service thread for 5-20 ms; that spoils the tail of
// the window it falls in, and the median over windows ignores it. Over a
// whole quarter-second rep, a few such stalls already moved the p90.
constexpr std::size_t open_window = 2500;

// The default service_config except for the busy trim, which is off: under
// traffic, slab_cache::trim_live() sizes a vector from the recycle-list
// length gauge, which push_global() raises only after its CAS, so a racing
// pop can wrap it below zero. reserve() then throws std::length_error on the
// dispatcher thread and the process aborts (seen once in a few dozen
// full-size service runs). Idle trims are quiescent and stay on.
service_config service_cfg(std::size_t workers) {
  service_config c;
  c.rt.workers = workers;
  c.busy_trim_every = 0;
  return c;
}

// Runs the client (the calling thread) on one CPU and every service thread
// on the others. The open-loop generator spins between due times; when a
// woken dispatcher or worker landed on its CPU, it waited for the kernel to
// switch threads, and 3-6% of open-loop reps held stalls of 5-20 ms (under
// 1% with the split). A service's threads inherit the affinity of the
// thread that constructs it, so construction runs on the service CPUs. With
// fewer than two CPUs nothing is pinned.
class cpu_split {
 public:
  cpu_split() {
    CPU_ZERO(&all_);
    if (pthread_getaffinity_np(pthread_self(), sizeof all_, &all_) != 0 ||
        CPU_COUNT(&all_) < 2) {
      return;
    }
    int last = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) last = c;
    }
    service_ = all_;
    CPU_CLR(last, &service_);
    CPU_ZERO(&client_);
    CPU_SET(last, &client_);
    split_ = true;
    move_to(client_);
  }
  ~cpu_split() {
    if (split_) move_to(all_);
  }
  cpu_split(const cpu_split&) = delete;
  cpu_split& operator=(const cpu_split&) = delete;

  std::unique_ptr<dag_service> service(const service_config& c) const {
    if (split_) move_to(service_);
    auto svc = std::make_unique<dag_service>(c);
    if (split_) move_to(client_);
    return svc;
  }

 private:
  static void move_to(const cpu_set_t& set) {
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }

  cpu_set_t all_;
  cpu_set_t service_;
  cpu_set_t client_;
  bool split_ = false;
};

double closed_throughput(const stamps& s) {
  const std::int64_t end = *std::max_element(s.done.begin(), s.done.end());
  return static_cast<double>(s.done.size()) / ((end - s.sub0[0]) * 1e-9);
}

void conserve(report& r, const char* name, const dag_service& svc) {
  const service_stats st = svc.stats();
  r.check(name, st.rejected == 0 && st.completed == st.submitted,
          std::to_string(st.completed) + " of " + std::to_string(st.submitted) +
              " completed");
}

void run_e2e_service(service_workload& w, const options& o, report& r) {
  oracle_book book(r, "service.tickets");
  stamps cold(w.cold_n());
  stamps open(w.open_n());
  stamps closed(w.closed_n());
  rss_meter rss;
  rss.mark(r);
  const cpu_split cpus;
  for (int k = 0; k < setups; ++k) {
    const std::int64_t t0 = now_ns();
    const auto svc = cpus.service(service_cfg(1));
    book.pass(w.closed_loop(*svc, cold), cold.due.size());
    r.rep("setup_s", seconds_since(t0));
  }

  const auto svc_p = cpus.service(service_cfg(service_workers));
  const auto svc_1 = cpus.service(service_cfg(1));
  std::uint64_t rep = 0;
  auto paced = [&](bool measured) {
    book.pass(w.open_loop(*svc_p, offered_rate, rep++, open), open.due.size());
    if (!measured) return;
    for (std::size_t lo = 0; lo < open.due.size(); lo += open_window) {
      std::vector<std::int64_t>& lat = r.series("latency_ns");
      std::vector<std::int64_t>& lag = r.series("service.gen_lag_ns");
      const std::size_t hi = std::min(lo + open_window, open.due.size());
      for (std::size_t i = lo; i < hi; ++i) {
        lat.push_back(open.done[i] - open.due[i]);
        lag.push_back(open.sub0[i] - open.due[i]);
      }
    }
  };
  auto full = [&](bool measured) {
    book.pass(w.closed_loop(*svc_p, closed), closed.due.size());
    if (measured) r.rep("throughput", closed_throughput(closed));
  };
  auto single = [&](bool measured) {
    book.pass(w.closed_loop(*svc_1, closed), closed.due.size());
    if (measured) r.rep("throughput_p1", closed_throughput(closed));
  };
  // The open loop is the noisiest phase, so it runs twice per round; the
  // closed loops repeat within a few percent.
  rotate(o.seconds, {paced, full, paced, single}, warmup_reps,
         [&] { rss.record(r); });
  conserve(r, "service.conservation", *svc_p);
  conserve(r, "service.conservation_p1", *svc_1);
}

void run_traced_service(service_workload& w, const options& o, report& r) {
  oracle_book book(r, "service.tickets");
  stamps open(w.open_n());
  stamps closed(w.closed_n());
  std::uint64_t rep = 0;
  const cpu_split cpus;
  {
    const auto svc_p = cpus.service(service_cfg(service_workers));
    const auto svc_1 = cpus.service(service_cfg(1));
    auto full = [&](bool measured) {
      book.pass(w.closed_loop(*svc_p, closed), closed.due.size());
      if (measured) r.rep("obs.untraced_throughput", closed_throughput(closed));
    };
    auto single = [&](bool measured) {
      book.pass(w.closed_loop(*svc_1, closed), closed.due.size());
      if (!measured) return;
      r.rep("sched.untraced_throughput_p1", closed_throughput(closed));
    };
    rotate(o.seconds * 0.3, {full, single}, 1, nullptr);
    std::vector<std::int64_t>& empty = r.series("sched.run_empty_ns");
    for (int i = 0; i < 200; ++i) {
      const std::int64_t t0 = now_ns();
      ticket t = svc_p->submit([] {});
      book.pass(t.valid() && t.wait(), 1);
      empty.push_back(now_ns() - t0);
    }
  }

  traced_window win;
  decorated_config dc(win);
  service_config cfg = service_cfg(service_workers);
  cfg.rt = dc.config(service_workers);
  const auto traced = cpus.service(cfg);
  std::uint64_t blocked = 0;
  std::uint64_t open_subs = 0;
  std::uint64_t slo_miss = 0;
  std::int64_t next_id = 0;
  auto account = [&](const stamps& s, std::int64_t start, std::int64_t end) {
    r.add_span({"run", 0, start, end, -1});
    win.span_s += (end - start) * 1e-9;
    win.dags += s.due.size();
    win.runs += s.due.size();
    win.items += s.due.size();
  };
  auto paced = [&](bool measured) {
    const std::uint64_t b0 = traced->stats().blocked;
    book.pass(w.open_loop(*traced, offered_rate, rep++, open), open.due.size());
    if (!measured) return;
    blocked += traced->stats().blocked - b0;
    open_subs += open.due.size();
    std::int64_t end = 0;
    for (std::size_t lo = 0; lo < open.due.size(); lo += open_window) {
      std::vector<std::int64_t>& queue = r.series("service.queue_ns");
      std::vector<std::int64_t>& exec = r.series("service.exec_ns");
      std::vector<std::int64_t>& soj = r.series("service.sojourn_ns");
      std::vector<std::int64_t>& sub = r.series("service.submit_ns");
      std::vector<std::int64_t>& lag = r.series("service.gen_lag_ns");
      const std::size_t hi = std::min(lo + open_window, open.due.size());
      for (std::size_t i = lo; i < hi; ++i) {
        queue.push_back(open.root[i] - open.due[i]);
        exec.push_back(open.done[i] - open.root[i]);
        soj.push_back(open.done[i] - open.due[i]);
        sub.push_back(open.sub1[i] - open.sub0[i]);
        lag.push_back(open.sub0[i] - open.due[i]);
        if (open.done[i] - open.due[i] > 1000000) ++slo_miss;
        end = std::max(end, open.done[i]);
        const std::int64_t id = next_id++;
        if (id % 16 != 0) continue;
        r.add_span({"submit", 1, open.sub0[i], open.sub1[i], id});
        r.add_span({"queue", 2, open.due[i], open.root[i], id});
        r.add_span({"exec", 3, open.root[i], open.done[i], id});
      }
    }
    account(open, open.due.front(), end);
  };
  auto saturated = [&](bool measured) {
    book.pass(w.closed_loop(*traced, closed), closed.due.size());
    if (!measured) return;
    r.rep("obs.traced_throughput", closed_throughput(closed));
    account(closed, closed.sub0.front(),
            *std::max_element(closed.done.begin(), closed.done.end()));
  };
  rotate(o.seconds * 0.7, {paced, saturated}, 1,
         [&] { win.open(traced->rt()); });
  win.close(traced->rt(), r);
  r.value("service.slo_miss_frac", ratio(slo_miss, open_subs));
  r.value("service.blocked_frac", ratio(blocked, open_subs));
  conserve(r, "service.conservation", *traced);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "spdag_bench: %s\nusage: spdag_bench --workload "
               "fanin|churn|bfs|service --seed N --seconds S [--trace 0|1] "
               "[--smoke] [--trace-out PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.traced = std::strcmp(argv[++i], "1") == 0;
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else {
      return usage(("bad argument: " + a).c_str());
    }
  }
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  report r;
  if (o.workload == "fanin") {
    fanin_workload w(o.seed, o.smoke);
    if (o.traced) {
      run_traced_compute(w, "fanin.tally", o, r);
    } else {
      run_e2e(w, "fanin.tally", o, r);
    }
  } else if (o.workload == "churn") {
    churn_workload w(o.seed, o.smoke);
    if (o.traced) {
      run_traced_compute(w, "churn.tally", o, r);
    } else {
      run_e2e(w, "churn.tally", o, r);
    }
  } else if (o.workload == "bfs") {
    bfs_workload w(o.seed, o.smoke);
    if (o.traced) {
      run_traced_bfs(w, o, r);
    } else {
      run_e2e(w, "bfs.serial_oracle", o, r);
    }
  } else if (o.workload == "service") {
    service_workload w(o.seed, o.smoke);
    if (o.traced) {
      run_traced_service(w, o, r);
    } else {
      run_e2e_service(w, o, r);
    }
  } else {
    return usage(("unknown workload: " + o.workload).c_str());
  }
  if (o.traced && !o.trace_out.empty() && !r.write_spans(o.trace_out)) {
    std::fprintf(stderr, "spdag_bench: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  r.print(stdout);
  return 0;
}
