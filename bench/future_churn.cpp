// Future churn: the allocation stress for the future machinery, and the
// acceptance benchmark for the slab-pool memory subsystem (src/mem/).
//
// Setup: n independent futures per run, each created, completed and
// consumed by its own producer/consumer pair (harness::future_churn) — one
// future_state + out-set + waiter record + three vertices cycled per
// iteration, nothing reused across iterations except through the allocator.
// Sweeps the `alloc:` spec: "malloc" sends every one of those objects to
// the heap, "pool" serves them from per-worker slab magazines.
//
// Metrics: futures/s(/core), plus the pool-registry counters that show
// malloc leaving the profile:
//   upstream/Mfut  — upstream allocator trips per million futures during
//                    the MEASURED iterations (after one warm-up run). The
//                    acceptance claim: ~0 for "pool" while allocs keep
//                    climbing — slab growth plateaus, recycling takes over;
//                    for "malloc" it is the full per-future object count.
//   recycle_rate   — share of allocations served from recycled cells.
//   remote/free    — share of frees landing on a different worker than the
//                    allocating one (the cross-worker hand-off the global
//                    recycle list absorbs).
//
// Scale knobs: -n / SPDAG_N (futures per run, default 1<<15), -proc /
// SPDAG_PROC, -runs / SPDAG_RUNS, -workns / SPDAG_WORKNS (producer busy-work).
// Telemetry: -json <path> / SPDAG_JSON writes one structured record per
// config (the CI perf gate consumes it; see scripts/perf_smoke_gate.py).
// The alloc sweep covers the slab pools and the malloc baseline.

#include <benchmark/benchmark.h>

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

void register_config(const std::string& alloc_spec, std::size_t workers,
                     std::uint64_t n, std::uint64_t work_ns, int runs) {
  const std::string name =
      "churn/" + alloc_spec + "/proc:" + std::to_string(workers);
  benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& st) {
    runtime_config cfg{workers, "dyn"};
    cfg.alloc = alloc_spec;
    runtime rt(cfg);
    harness::future_churn(rt, n, work_ns);  // warm-up: slabs, magazines
    obs::tracer::instance().reset();  // summary covers the measured window
    const pool_stats warm = rt.pools().totals();
    std::uint64_t delivered_sum = 0;
    double wall_sum_s = 0;
    for (auto _ : st) {
      wall_timer t;
      delivered_sum += harness::future_churn(rt, n, work_ns);
      const double el = t.elapsed_s();
      st.SetIterationTime(el);
      wall_sum_s += el;
    }
    const pool_stats after = rt.pools().totals();
    const double futures =
        static_cast<double>(harness::churn_futures(n));
    const double allocs = static_cast<double>(after.allocs - warm.allocs);
    const double frees = static_cast<double>(after.frees - warm.frees);
    const double measured_futures =
        futures * static_cast<double>(st.iterations());
    st.counters["futures/s"] = benchmark::Counter(
        futures, benchmark::Counter::kIsIterationInvariantRate);
    st.counters["futures/s/core"] = benchmark::Counter(
        futures / static_cast<double>(workers),
        benchmark::Counter::kIsIterationInvariantRate);
    // The acceptance stat: upstream allocator trips per million futures in
    // steady state. Plateaued slabs => ~0 under "pool".
    st.counters["upstream/Mfut"] =
        measured_futures > 0
            ? static_cast<double>(after.slab_growths - warm.slab_growths) *
                  1e6 / measured_futures
            : 0.0;
    st.counters["recycle_rate"] =
        allocs > 0
            ? static_cast<double>(after.recycles - warm.recycles) / allocs
            : 0.0;
    st.counters["remote/free"] =
        frees > 0
            ? static_cast<double>(after.remote_frees - warm.remote_frees) /
                  frees
            : 0.0;
    if (delivered_sum != st.iterations() * n) {
      st.SkipWithError("exactly-once delivery violated");
    }
    if (harness::json_enabled()) {
      harness::json_record rec;
      rec.name = name;
      rec.spec = alloc_spec;
      rec.proc = workers;
      rec.runs = runs;
      const double iters = static_cast<double>(st.iterations());
      rec.wall_s = iters > 0 ? wall_sum_s / iters : 0.0;
      rec.ops_per_s = rec.wall_s > 0 ? futures / rec.wall_s : 0.0;
      rec.pools = rt.pools().rows();
      rec.pool_totals = after;
      rec.outsets = rt.outsets().totals();
      rec.sched_totals = rt.sched().totals();
      rec.extra.emplace_back("upstream_per_Mfut",
                             st.counters["upstream/Mfut"].value);
      rec.extra.emplace_back("recycle_rate", st.counters["recycle_rate"].value);
      rec.extra.emplace_back("remote_free_rate",
                             st.counters["remote/free"].value);
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
  harness::json_open(opts, "future_churn");
  const std::uint64_t work_ns = static_cast<std::uint64_t>(
      opts.get_int("workns", 0));

  // "malloc" is the upstream baseline the CI perf gate compares "pool"
  // against.
  const std::vector<std::string> algos{"pool", "malloc"};
  for (const auto& algo : algos) {
    for (std::size_t p : harness::worker_sweep(common.max_proc)) {
      register_config(algo, p, common.n, work_ns, common.runs);
    }
  }

  std::printf(
      "# churn: n independent future lifecycles per run, n=%llu, "
      "max_proc=%zu, runs=%d, work_ns=%llu; acceptance: upstream/Mfut ~ 0 "
      "under alloc:pool while futures/s holds\n",
      static_cast<unsigned long long>(common.n), common.max_proc, common.runs,
      static_cast<unsigned long long>(work_ns));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Per-pool detail for the default-core pool run (rebuilt fresh so the
  // numbers are one clean run's, not the sweep's accumulation), then a
  // quiescent trim to show the release path in the same log. Scoped so the
  // runtime's workers are joined before json_write() — a trace dump reads
  // the event rings and needs full quiescence.
  {
    runtime_config cfg{common.max_proc, "dyn"};
    cfg.alloc = "pool";
    runtime rt(cfg);
    harness::future_churn(rt, common.n, work_ns);
    harness::future_churn(rt, common.n, work_ns);
    harness::print_pool_stats(std::cout, rt.pools().rows());
    const std::size_t released = rt.trim_pools();
    std::printf("# trim_pools between runs: released %zu slabs, retained=%llu\n",
                released,
                static_cast<unsigned long long>(rt.pools().totals().retained()));

    // Complete-to-delivery latency distribution on the same warmed runtime:
    // the tail the mean futures/s rate hides (magazine misses, remote frees).
    {
      latency_histogram hist;
      obs::tracer::instance().reset();
      wall_timer t;
      const std::uint64_t delivered =
          harness::future_churn_timed(rt, common.n, work_ns, &hist);
      const double wall_s = t.elapsed_s();
      const double p50_ms = static_cast<double>(hist.percentile_ns(0.50)) * 1e-6;
      const double p95_ms = static_cast<double>(hist.percentile_ns(0.95)) * 1e-6;
      const double p99_ms = static_cast<double>(hist.percentile_ns(0.99)) * 1e-6;
      std::printf(
          "# churn latency (complete->delivery, n=%llu): p50=%.4fms "
          "p95=%.4fms p99=%.4fms\n",
          static_cast<unsigned long long>(delivered), p50_ms, p95_ms, p99_ms);
      if (harness::json_enabled()) {
        harness::json_record rec;
        rec.name = "churn_latency/pool/proc:" + std::to_string(common.max_proc);
        rec.spec = "pool";
        rec.proc = common.max_proc;
        rec.runs = 1;
        rec.wall_s = wall_s;
        rec.ops_per_s = wall_s > 0 ? static_cast<double>(delivered) / wall_s : 0;
        rec.lat_p50_ms = p50_ms;
        rec.lat_p95_ms = p95_ms;
        rec.lat_p99_ms = p99_ms;
        rec.pool_totals = rt.pools().totals();
        rec.extra.emplace_back("delivered", static_cast<double>(delivered));
        harness::json_add(std::move(rec));
      }
    }
  }
  return harness::json_write();
}
