// apps/bfs: frontier-synchronous BFS on a synthetic random graph — the
// application-tier bench for the batched spawn path. Sweeps both schedulers
// x batch {off, on} and emits one schema-2 JSON record per configuration
// with the amortization ledger (`edges`, `counter_ops`,
// `counter_ops_per_edge`) and the conservation pair (`completed`,
// `spawned`) that scripts/perf_smoke_gate.py --apps checks in CI.
//
// Usage: app_bfs [-n vertices] [-degree 8] [-proc P] [-runs R] [-json path]

#include <cstdio>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "harness/bench_runner.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace spdag;
  options opts(argc, argv);
  const auto common = harness::read_common(opts, /*default_n=*/1 << 15);
  harness::json_open(opts, "apps");
  const std::uint64_t degree =
      static_cast<std::uint64_t>(opts.get_int("degree", 8));

  const apps::bfs_graph g = apps::make_bfs_graph(common.n, degree, /*seed=*/42);
  std::printf("# apps/bfs: n=%llu edges=%llu proc=%zu runs=%d\n",
              static_cast<unsigned long long>(g.vertex_count()),
              static_cast<unsigned long long>(g.edge_count()), common.max_proc,
              common.runs);

  result_table table({"sched", "batch", "mean_s", "Medges/s", "ops_per_edge"});
  for (const char* sched : {"ws", "private"}) {
    for (const bool batch : {false, true}) {
      runtime_config rc;
      rc.workers = common.max_proc;
      rc.sched = sched;
      runtime rt(rc);
      const apps::bfs_config cfg{/*grain=*/64, batch};
      // Warm-up populates the pools AND fixes the golden distance vector the
      // measured runs must reproduce byte-identically.
      const std::vector<std::int32_t> golden = apps::bfs_run(rt, g, cfg);
      rt.engine().reset_stats();  // scope the ledger to the measured runs

      run_stats stats;
      latency_histogram hist;
      for (int r = 0; r < common.runs; ++r) {
        wall_timer t;
        const std::vector<std::int32_t> d = apps::bfs_run(rt, g, cfg);
        const double s = t.elapsed_s();
        stats.add(s);
        hist.record(static_cast<std::uint64_t>(s * 1e9));
        if (d != golden) {
          std::fprintf(stderr, "bfs: nondeterministic distance vector "
                               "(sched=%s batch=%d run=%d)\n",
                       sched, batch ? 1 : 0, r);
          return 1;
        }
      }

      const engine_stats& es = rt.engine().stats();
      const double edges =
          static_cast<double>(es.edges.load(std::memory_order_relaxed));
      const double cops = static_cast<double>(
          es.counter_incs.load(std::memory_order_relaxed) +
          es.counter_decs.load(std::memory_order_relaxed));
      const double ratio = edges > 0 ? cops / (2.0 * edges) : 0.0;
      const double medges =
          stats.mean() > 0
              ? static_cast<double>(g.edge_count()) / stats.mean() / 1e6
              : 0.0;
      table.add_row({sched, batch ? "on" : "off",
                     result_table::num(stats.mean(), 4),
                     result_table::num(medges, 1),
                     result_table::num(ratio, 4)});

      if (harness::json_enabled()) {
        harness::json_record rec;
        rec.name = "bfs/dyn/sched:";
        rec.name += sched;
        rec.name += "/proc:";
        rec.name += std::to_string(common.max_proc);
        if (batch) rec.name += "/batch";
        rec.spec = "dyn";
        rec.sched = sched;
        rec.proc = common.max_proc;
        rec.runs = common.runs;
        rec.ops_per_s = stats.mean() > 0
                            ? static_cast<double>(g.edge_count()) / stats.mean()
                            : 0.0;
        rec.wall_s = stats.mean();
        rec.lat_p50_ms = static_cast<double>(hist.percentile_ns(0.50)) * 1e-6;
        rec.lat_p95_ms = static_cast<double>(hist.percentile_ns(0.95)) * 1e-6;
        rec.lat_p99_ms = static_cast<double>(hist.percentile_ns(0.99)) * 1e-6;
        rec.pools = rt.pools().rows();
        rec.pool_totals = rt.pools().totals();
        rec.outsets = rt.outsets().totals();
        rec.sched_totals = rt.sched().totals();
        rec.extra.emplace_back("edges", edges);
        rec.extra.emplace_back("counter_ops", cops);
        rec.extra.emplace_back("counter_ops_per_edge", ratio);
        rec.extra.emplace_back(
            "completed", static_cast<double>(
                             es.executions.load(std::memory_order_relaxed)));
        rec.extra.emplace_back(
            "spawned",
            static_cast<double>(
                es.vertices_created.load(std::memory_order_relaxed)));
        rec.extra.emplace_back("batch", batch ? 1.0 : 0.0);
        harness::json_add(std::move(rec));
      }
    }
  }
  harness::emit(table, common.csv);
  return harness::json_write();
}
