// Fan-out scalability: the mirror of fig08 (fanin) on the future side.
//
// Setup: one producer completes a single future while n consumers register
// against it, varying processors and out-set algorithm ("simple" = the
// single CAS-list head every registration fights over, "tree[:f]" = the
// grow-on-contention out-set tree). Metric: out-set operations (one
// registration + one delivery per consumer) per second per core, plus the
// headline contention stat `retries/add` — failed head-CASes per successful
// registration. Expected shape: the CAS list's retry rate grows with the
// number of concurrent consumers while the tree's stays flat (its adds
// separate onto disjoint cache lines after O(log c) collisions), the exact
// fan-out analogue of Fetch & Add vs the in-counter in Figure 8.
//
// Deep-tree broadcast mode (the parallel-finalize acceptance bench): the
// "fanout_deep/..." configs use the scatter spec ("tree:2:1:<depth>") so
// every registration dives <depth> levels before its first CAS,
// deterministically building the deep, wide tree that contention would on a
// many-core box — under both schedulers. Every subtree drain runs as an
// ordinary vertex, so it moves between workers the way that scheduler
// moves any vertex. The workload is harness::fanout_timed, whose producer
// completes only after every consumer registered. The metric is `lat_ms` —
// finalize-to-last-delivery wall time — plus `subtrees_offloaded` (finalize
// work units handed to the spawner) and `drains_enqueued` (drain vertices
// the engine made of them). At any worker count, a pass that captures fewer
// registrations than consumers, a run that offloads nothing, or offloads
// that do not all become drain vertices is an error (the broadcast or its
// drains went dark), and CI smoke-runs exactly that configuration.
//
// Scale knobs: -n / SPDAG_N (consumer count, default 1<<15), -proc /
// SPDAG_PROC (max workers), -runs / SPDAG_RUNS, -prodns / SPDAG_PRODNS
// (producer busy-work in ns of the non-deep configs; default scales with n
// so registrations pile up against the still-pending future instead of
// taking the ready bypass), -deep / SPDAG_DEEP (scatter depth of the
// deep-tree mode, default 8; 0 disables those configs). -json <path> /
// SPDAG_JSON writes one structured record per config (CI uploads them as
// BENCH_*.json).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_runner.hpp"
#include "harness/workloads.hpp"
#include "obs/trace.hpp"
#include "sched/runtime.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"
#include "util/topology.hpp"

namespace {

using namespace spdag;

// Set when a deep-mode run trips the broadcast guard. SkipWithError
// only annotates the report (the benchmark process still exits 0), so CI
// needs this flag to turn the guard into a red build.
std::atomic<bool> g_deep_drain_dark{false};

void register_config(const std::string& outset_spec, std::size_t workers,
                     std::uint64_t n, std::uint64_t producer_ns, int runs) {
  // Appends, not one operator+ chain (gcc 12 -O3 -Wrestrict, PR 105651).
  std::string name = "fanout/";
  name += outset_spec;
  name += "/proc:";
  name += std::to_string(workers);
  benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& st) {
    runtime_config cfg{workers, "dyn"};
    cfg.outset = outset_spec;
    runtime rt(cfg);
    harness::fanout(rt, n, 0, producer_ns);  // warm-up: pools, pages
    obs::tracer::instance().reset();  // summary covers the measured window
    const outset_totals before = rt.outsets().totals();
    std::uint64_t delivered_sum = 0;
    double wall_sum_s = 0;
    for (auto _ : st) {
      wall_timer t;
      delivered_sum += harness::fanout(rt, n, 0, producer_ns);
      const double el = t.elapsed_s();
      st.SetIterationTime(el);
      wall_sum_s += el;
    }
    const outset_totals after = rt.outsets().totals();
    const double adds = static_cast<double>(after.adds - before.adds);
    const double retries =
        static_cast<double>(after.add_cas_retries - before.add_cas_retries);
    const double rejected =
        static_cast<double>(after.rejected_adds - before.rejected_adds);
    const double ops = static_cast<double>(harness::outset_ops(n));
    st.counters["ops/s"] = benchmark::Counter(
        ops, benchmark::Counter::kIsIterationInvariantRate);
    st.counters["ops/s/core"] = benchmark::Counter(
        ops / static_cast<double>(workers),
        benchmark::Counter::kIsIterationInvariantRate);
    // The contention acceptance stat: failed head-CASes per captured add.
    st.counters["retries/add"] = adds > 0 ? retries / adds : 0.0;
    // Share of registration attempts that lost the race to finalize and
    // self-delivered (grows when the producer finishes early). Numerator and
    // denominator both accumulate over the same iterations.
    const double attempts = adds + rejected;
    st.counters["rejected/add"] = attempts > 0 ? rejected / attempts : 0.0;
    st.counters["subtrees_offloaded"] = static_cast<double>(
        after.subtrees_offloaded - before.subtrees_offloaded);
    if (delivered_sum != st.iterations() * n) {
      st.SkipWithError("exactly-once delivery violated");
    }
    if (harness::json_enabled()) {
      harness::json_record rec;
      rec.name = name;
      rec.spec = outset_spec;
      rec.proc = workers;
      rec.runs = runs;
      const double iters = static_cast<double>(st.iterations());
      rec.wall_s = iters > 0 ? wall_sum_s / iters : 0.0;
      rec.ops_per_s = rec.wall_s > 0 ? ops / rec.wall_s : 0.0;
      rec.pools = rt.pools().rows();
      rec.pool_totals = rt.pools().totals();
      rec.outsets = after;
      rec.sched_totals = rt.sched().totals();
      rec.extra.emplace_back("retries_per_add",
                             st.counters["retries/add"].value);
      rec.extra.emplace_back("rejected_per_add",
                             st.counters["rejected/add"].value);
      harness::json_add(std::move(rec));
    }
  })
      ->UseManualTime()
      ->Iterations(runs);
}

// Deep-tree broadcast mode: scatter-forced depth, latency-instrumented
// workload, parallel-drain counters — swept per scheduler.
void register_deep_config(const std::string& outset_spec,
                          const std::string& sched, std::size_t workers,
                          std::uint64_t n, int runs) {
  const std::string name = "fanout_deep/" + outset_spec + "/sched:" + sched +
                           "/proc:" + std::to_string(workers);
  benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& st) {
    runtime_config cfg{workers, "dyn"};
    cfg.outset = outset_spec;
    cfg.sched = sched;
    runtime rt(cfg);
    harness::fanout_timed(rt, n, 0, nullptr);  // warm-up
    obs::tracer::instance().reset();  // summary covers the measured window
    const outset_totals before = rt.outsets().totals();
    const std::uint64_t drains_before =
        rt.engine().stats().drains_enqueued.load();
    // Per-consumer finalize-to-delivery latency across all measured
    // iterations: the distribution behind the lat_ms mean.
    latency_histogram hist;
    std::uint64_t delivered_sum = 0;
    double lat_sum_s = 0;
    double wall_sum_s = 0;
    bool short_pass = false;
    for (auto _ : st) {
      const std::uint64_t adds_before = rt.outsets().totals().adds;
      harness::fanout_timing timing;
      wall_timer t;
      delivered_sum += harness::fanout_timed(rt, n, 0, &timing, &hist);
      const double el = t.elapsed_s();
      st.SetIterationTime(el);
      wall_sum_s += el;
      lat_sum_s += timing.finalize_to_last_s;
      short_pass |= rt.outsets().totals().adds - adds_before != n;
    }
    const outset_totals after = rt.outsets().totals();
    const std::uint64_t offloaded =
        after.subtrees_offloaded - before.subtrees_offloaded;
    const std::uint64_t drains =
        rt.engine().stats().drains_enqueued.load() - drains_before;
    // The headline: how long the completing future took to reach its LAST
    // consumer, mean over iterations.
    st.counters["lat_ms"] =
        st.iterations() > 0
            ? lat_sum_s * 1e3 / static_cast<double>(st.iterations())
            : 0.0;
    st.counters["lat_p50_ms"] =
        static_cast<double>(hist.percentile_ns(0.50)) * 1e-6;
    st.counters["lat_p99_ms"] =
        static_cast<double>(hist.percentile_ns(0.99)) * 1e-6;
    st.counters["subtrees_offloaded"] = static_cast<double>(offloaded);
    st.counters["drains_enqueued"] = static_cast<double>(drains);
    st.counters["ops/s"] = benchmark::Counter(
        static_cast<double>(harness::outset_ops(n)),
        benchmark::Counter::kIsIterationInvariantRate);
    if (delivered_sum != st.iterations() * n) {
      st.SkipWithError("exactly-once delivery violated");
    }
    // The producer waits for every registration, so each pass must
    // capture all n consumers; a scatter-deep tree of them must offload
    // subtree drains, and every offload must reach the engine as a drain
    // vertex. Anything else means the broadcast or its drains went dark.
    const char* dark = nullptr;
    if (short_pass) {
      dark = "a pass captured fewer registrations than consumers";
    } else if (n > 0 && offloaded == 0) {
      dark = "deep-tree finalize offloaded no subtrees";
    } else if (drains != offloaded) {
      dark = "offloaded subtrees did not all become drain vertices";
    }
    if (dark != nullptr) {
      g_deep_drain_dark.store(true, std::memory_order_relaxed);
      st.SkipWithError(dark);
    }
    if (harness::json_enabled()) {
      harness::json_record rec;
      rec.name = name;
      rec.spec = outset_spec;
      rec.sched = sched;
      rec.proc = workers;
      rec.runs = runs;
      const double iters = static_cast<double>(st.iterations());
      rec.wall_s = iters > 0 ? wall_sum_s / iters : 0.0;
      rec.ops_per_s =
          rec.wall_s > 0
              ? static_cast<double>(harness::outset_ops(n)) / rec.wall_s
              : 0.0;
      rec.lat_ms = st.counters["lat_ms"].value;
      rec.lat_p50_ms = static_cast<double>(hist.percentile_ns(0.50)) * 1e-6;
      rec.lat_p95_ms = static_cast<double>(hist.percentile_ns(0.95)) * 1e-6;
      rec.lat_p99_ms = static_cast<double>(hist.percentile_ns(0.99)) * 1e-6;
      rec.pools = rt.pools().rows();
      rec.pool_totals = rt.pools().totals();
      rec.outsets = after;
      rec.sched_totals = rt.sched().totals();
      rec.extra.emplace_back("drains_enqueued", static_cast<double>(drains));
      harness::json_add(std::move(rec));
    }
  })
      ->UseManualTime()
      ->Iterations(runs);
}

}  // namespace

int main(int argc, char** argv) {
  options opts(argc, argv);
  const auto common = harness::read_common(opts, /*default_n=*/1 << 15);
  harness::json_open(opts, "fanout_scalability");
  // Give the producer roughly the time the registration wave needs, so adds
  // contend with each other rather than racing a long-completed future.
  const std::uint64_t producer_ns = static_cast<std::uint64_t>(
      opts.get_int("prodns", static_cast<std::int64_t>(common.n * 25)));

  // Scatter depth of the deep-tree mode; 0 = skip it. Validated here so a
  // bad value is a clean CLI error, not an uncaught throw mid-sweep from
  // the runtime constructor inside a benchmark lambda.
  const std::int64_t deep_raw = opts.get_int("deep", 8);
  const std::uint32_t depth_cap = tree_outset_config{}.max_depth;
  if (deep_raw < 0 || deep_raw > static_cast<std::int64_t>(depth_cap)) {
    std::fprintf(stderr,
                 "bad -deep %lld: must be in [0, %u] (0 disables the "
                 "deep-tree mode)\n",
                 static_cast<long long>(deep_raw), depth_cap);
    return 2;
  }
  const std::uint64_t deep = static_cast<std::uint64_t>(deep_raw);

  const std::vector<std::string> algos{"simple", "tree", "tree:4"};
  for (const auto& algo : algos) {
    for (std::size_t p : harness::worker_sweep(common.max_proc)) {
      register_config(algo, p, common.n, producer_ns, common.runs);
    }
  }
  const std::vector<std::string> scheds{"ws", "private"};
  if (deep > 0) {
    const std::string deep_spec = "tree:2:1:" + std::to_string(deep);
    for (const auto& sched : scheds) {
      for (std::size_t p : harness::worker_sweep(common.max_proc)) {
        register_deep_config(deep_spec, sched, p, common.n, common.runs);
      }
    }
  }

  std::printf(
      "# fanout: 1 producer -> n consumers, n=%llu, max_proc=%zu, runs=%d, "
      "producer_ns=%llu, deep=%llu (dual of fig08; fanout_deep = "
      "scatter-forced tree + parallel finalize drain, metric lat_ms)\n",
      static_cast<unsigned long long>(common.n), common.max_proc, common.runs,
      static_cast<unsigned long long>(producer_ns),
      static_cast<unsigned long long>(deep));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (deep > 0) {
    // Broadcast detail for one clean deep run at full width per scheduler
    // (rebuilt fresh so the counters are one run's, not the sweep's
    // accumulation).
    for (const auto& sched : scheds) {
      runtime_config cfg{common.max_proc, "dyn"};
      cfg.outset = "tree:2:1:" + std::to_string(deep);
      cfg.sched = sched;
      runtime rt(cfg);
      harness::fanout_timed(rt, common.n, 0, nullptr);
      std::cout << "# sched=" << sched << " ";
      harness::print_broadcast_stats(
          std::cout, rt.outsets().totals(),
          rt.engine().stats().drains_enqueued.load());
    }
  }
  const int json_rc = harness::json_write();
  if (g_deep_drain_dark.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "FAIL: a deep-tree run missed registrations, offloaded no "
                 "subtrees, or lost offloads before the engine\n");
    return 1;
  }
  return json_rc;
}
