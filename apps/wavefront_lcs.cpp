// apps/wavefront_lcs: blocked anti-diagonal LCS wavefront — the
// dependency-chain-heavy application bench for the batched spawn path. Each
// diagonal is one finish block whose blocks fan out through the blocked
// builder (batch on) or the fork2 splitter (batch off), swept over both
// schedulers. Emits one schema-2 JSON record per configuration with the
// amortization ledger (`edges`, `counter_ops`, `counter_ops_per_edge`) and
// the conservation pair (`completed`, `spawned`) for
// scripts/perf_smoke_gate.py --apps.
//
// Usage: app_wavefront_lcs [-n len] [-block 64] [-proc P] [-runs R]
//                          [-json path]

#include <cstdio>
#include <string>

#include "apps/wavefront_lcs.hpp"
#include "harness/bench_runner.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace spdag;
  options opts(argc, argv);
  const auto common = harness::read_common(opts, /*default_n=*/1024);
  harness::json_open(opts, "apps");
  const std::size_t block =
      static_cast<std::size_t>(opts.get_int("block", 64));

  apps::lcs_config base;
  base.len = common.n;
  base.block = block;
  const std::uint32_t expected = apps::lcs_serial(
      apps::random_dna(base.len, base.seed),
      apps::random_dna(base.len, base.seed + 1));
  std::printf("# apps/wavefront_lcs: len=%zu block=%zu cells=%llu proc=%zu "
              "runs=%d serial_lcs=%u\n",
              base.len, base.block,
              static_cast<unsigned long long>(base.len * base.len),
              common.max_proc, common.runs, expected);

  const double cells = static_cast<double>(base.len) * base.len;
  result_table table({"sched", "batch", "mean_s", "Mcells/s", "ops_per_edge"});
  for (const char* sched : {"ws", "private"}) {
    for (const bool batch : {false, true}) {
      runtime_config rc;
      rc.workers = common.max_proc;
      rc.sched = sched;
      runtime rt(rc);
      apps::lcs_config cfg = base;
      cfg.batch = batch;
      // Warm-up fixes the golden checksum and cross-checks the serial dp.
      const apps::lcs_result golden = apps::lcs_run(rt, cfg);
      if (golden.length != expected) {
        std::fprintf(stderr, "lcs: length %u != serial %u (sched=%s batch=%d)\n",
                     golden.length, expected, sched, batch ? 1 : 0);
        return 1;
      }
      rt.engine().reset_stats();  // scope the ledger to the measured runs

      run_stats stats;
      latency_histogram hist;
      for (int r = 0; r < common.runs; ++r) {
        wall_timer t;
        const apps::lcs_result res = apps::lcs_run(rt, cfg);
        const double s = t.elapsed_s();
        stats.add(s);
        hist.record(static_cast<std::uint64_t>(s * 1e9));
        if (res.length != golden.length ||
            res.cells_checksum != golden.cells_checksum) {
          std::fprintf(stderr, "lcs: nondeterministic cells "
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
      table.add_row({sched, batch ? "on" : "off",
                     result_table::num(stats.mean(), 4),
                     result_table::num(stats.mean() > 0
                                           ? cells / stats.mean() / 1e6
                                           : 0.0, 1),
                     result_table::num(ratio, 4)});

      if (harness::json_enabled()) {
        harness::json_record rec;
        rec.name = "wavefront_lcs/dyn/sched:";
        rec.name += sched;
        rec.name += "/proc:";
        rec.name += std::to_string(common.max_proc);
        if (batch) rec.name += "/batch";
        rec.spec = "dyn";
        rec.sched = sched;
        rec.proc = common.max_proc;
        rec.runs = common.runs;
        rec.ops_per_s = stats.mean() > 0 ? cells / stats.mean() : 0.0;
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
