// apps/stream_pipeline: continuous-arrival future pipeline — the
// broadcast-heavy application bench for the batched registration path
// (future_then_group + out-set add_group vs a fork2 tree of single
// future_then calls), swept over both schedulers. Emits one schema-2 JSON
// record per configuration with the amortization ledger (`edges`,
// `counter_ops`, `counter_ops_per_edge`) and the conservation pair
// (`completed`, `spawned`) for scripts/perf_smoke_gate.py --apps.
//
// Usage: app_stream_pipeline [-n items] [-stages 4] [-width 8] [-proc P]
//                            [-runs R] [-json path]

#include <cstdio>
#include <string>

#include "apps/stream_pipeline.hpp"
#include "harness/bench_runner.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace spdag;
  options opts(argc, argv);
  const auto common = harness::read_common(opts, /*default_n=*/256);
  harness::json_open(opts, "apps");

  apps::stream_config base;
  base.items = common.n;
  base.stages = static_cast<std::uint32_t>(opts.get_int("stages", 4));
  base.width = static_cast<std::uint32_t>(opts.get_int("width", 8));
  const std::uint64_t want_deliveries =
      base.items * base.stages * base.width;
  std::printf("# apps/stream_pipeline: items=%llu stages=%u width=%u "
              "deliveries=%llu proc=%zu runs=%d\n",
              static_cast<unsigned long long>(base.items), base.stages,
              base.width, static_cast<unsigned long long>(want_deliveries),
              common.max_proc, common.runs);

  result_table table(
      {"sched", "batch", "mean_s", "Mdeliv/s", "ops_per_edge"});
  for (const char* sched : {"ws", "private"}) {
    for (const bool batch : {false, true}) {
      runtime_config rc;
      rc.workers = common.max_proc;
      rc.sched = sched;
      runtime rt(rc);
      apps::stream_config cfg = base;
      cfg.batch = batch;
      // Warm-up fixes the golden checksum and checks delivery conservation.
      const apps::stream_result golden = apps::stream_run(rt, cfg);
      if (golden.deliveries != want_deliveries) {
        std::fprintf(stderr,
                     "stream: %llu deliveries != expected %llu "
                     "(sched=%s batch=%d)\n",
                     static_cast<unsigned long long>(golden.deliveries),
                     static_cast<unsigned long long>(want_deliveries), sched,
                     batch ? 1 : 0);
        return 1;
      }
      rt.engine().reset_stats();  // scope the ledger to the measured runs

      run_stats stats;
      latency_histogram hist;
      for (int r = 0; r < common.runs; ++r) {
        wall_timer t;
        const apps::stream_result res = apps::stream_run(rt, cfg);
        const double s = t.elapsed_s();
        stats.add(s);
        hist.record(static_cast<std::uint64_t>(s * 1e9));
        if (res.checksum != golden.checksum ||
            res.deliveries != want_deliveries) {
          std::fprintf(stderr, "stream: nondeterministic fold "
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
      const double dps = stats.mean() > 0
                             ? static_cast<double>(want_deliveries) /
                                   stats.mean()
                             : 0.0;
      table.add_row({sched, batch ? "on" : "off",
                     result_table::num(stats.mean(), 4),
                     result_table::num(dps / 1e6, 2),
                     result_table::num(ratio, 4)});

      if (harness::json_enabled()) {
        harness::json_record rec;
        rec.name = "stream_pipeline/dyn/sched:";
        rec.name += sched;
        rec.name += "/proc:";
        rec.name += std::to_string(common.max_proc);
        if (batch) rec.name += "/batch";
        rec.spec = "dyn";
        rec.sched = sched;
        rec.proc = common.max_proc;
        rec.runs = common.runs;
        rec.ops_per_s = dps;
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
