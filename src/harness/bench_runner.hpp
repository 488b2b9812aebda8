#pragma once
// Sweep runner used by every figure-reproduction benchmark.
//
// Builds a fresh runtime per configuration, repeats the workload, and
// reports the paper's metric: operations per second per core, averaged over
// repetitions (the artifact's default was 30 repetitions; ours is
// environment-scalable via SPDAG_RUNS).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mem/registry.hpp"
#include "obs/trace.hpp"
#include "outset/outset.hpp"
#include "sched/scheduler_base.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace spdag::harness {

struct bench_config {
  std::string workload = "fanin";  // "fanin" | "indegree2" | "fib" | "churn"
  std::string algo = "dyn";        // counter spec (see make_counter_factory)
  std::size_t workers = 1;
  std::uint64_t n = 1 << 20;       // leaf count (or fib argument)
  std::uint64_t work_ns = 0;       // per-leaf dummy work
  int repetitions = 3;
  std::string alloc = "pool";      // alloc spec (see make_pool_registry)
  // fanin only: build the fan-out with the blocked spawn_batch builder
  // (one batched increment per 32 children) instead of the fork2 splitter.
  bool batch = false;
};

struct bench_result {
  bench_config cfg;
  double mean_s = 0;
  double min_s = 0;
  double max_s = 0;
  double rsd = 0;           // relative stddev across repetitions
  double ops_per_s = 0;     // counter ops / mean seconds
  double ops_per_s_per_core = 0;
  // Per-pool allocation stats snapshotted after the measured runs, plus the
  // warm-to-end upstream-allocation delta: zero means the measured runs
  // never touched malloc (the `alloc:pool` steady-state claim).
  std::vector<pool_registry_row> pools;
  std::uint64_t measured_slab_growths = 0;
  // Broadcast-side stats over the whole config (warm-up included): the
  // out-set totals (subtrees_offloaded = finalize work units handed off)
  // and scheduler totals.
  outset_totals outsets;
  scheduler_totals sched;
};

// Runs one configuration to completion and returns the aggregate.
bench_result run_config(const bench_config& cfg);

// One line per pool: allocs / recycles / slab growths / cross-worker frees.
void print_pool_stats(std::ostream& os,
                      const std::vector<pool_registry_row>& rows);

// One line of broadcast stats: adds / delivered / subtree drains offloaded
// by the out-sets and drain vertices enqueued by the engine (the two match
// when every offload went through dag_engine::enqueue_drain).
void print_broadcast_stats(std::ostream& os, const outset_totals& outsets,
                           std::uint64_t drains_enqueued);

// Standard sweep values -----------------------------------------------------

// Worker counts 1..max_workers thinned to ~`points` values (paper sweeps
// 1..40 processors).
std::vector<std::size_t> worker_sweep(std::size_t max_workers,
                                      std::size_t points = 8);

// Reads shared benchmark options (-n, -proc, -runs, -workload, ...) with
// environment fallbacks (SPDAG_N, SPDAG_PROC, SPDAG_RUNS, ...).
struct common_options {
  std::uint64_t n;
  std::size_t max_proc;
  int runs;
  bool csv;
};
common_options read_common(const options& opts, std::uint64_t default_n);

// Emits one table in both grid and (optionally) CSV form.
void emit(result_table& table, bool csv);

// Machine-readable bench telemetry (-json <path> / SPDAG_JSON) -------------
//
// Every bench main opens the process-wide sink once, appends one record per
// configuration as it completes, and writes the document on exit:
//
//   harness::json_open(opts, "future_churn");
//   ...
//   if (harness::json_enabled()) harness::json_add(std::move(rec));
//   ...
//   return harness::json_write();   // 0 when disabled or written cleanly
//
// The document is one JSON object: {"schema", "bench", "git_sha",
// "generated_unix", "records": [...]}. CI redirects each bench to
// BENCH_<name>.json, uploads them as artifacts, and gates pool-vs-malloc
// throughput on the same run (scripts/perf_smoke_gate.py), so the perf
// claims leave a trajectory instead of living in commit messages.
struct json_record {
  std::string name;       // full config name, e.g. "churn/pool/proc:2"
  std::string spec;       // the swept spec (counter / alloc / outset)
  std::string sched;      // scheduler, where swept ("" = default)
  std::size_t proc = 0;
  int runs = 0;
  double ops_per_s = 0;
  double lat_ms = 0;      // finalize-to-last-delivery latency (deep fanout)
  // Latency distribution tails (0 when the bench measures none): p50/p95/p99
  // from util/histogram, in milliseconds.
  double lat_p50_ms = 0;
  double lat_p95_ms = 0;
  double lat_p99_ms = 0;
  double wall_s = 0;      // mean measured wall seconds per repetition
  // Utilization summary from the process tracer; auto-filled by json_add
  // when tracing is active (mode stays "off" otherwise).
  obs::trace_summary trace{};
  std::vector<pool_registry_row> pools;  // per-pool stats rows (optional)
  pool_stats pool_totals{};              // registry totals (optional)
  outset_totals outsets{};
  scheduler_totals sched_totals{};
  // Bench-specific scalar counters ("recycle_rate", "upstream/Mfut", ...).
  std::vector<std::pair<std::string, double>> extra;
};

// Reads `-json <path>` (env SPDAG_JSON); empty path leaves the sink
// disabled and every other json_* call a no-op. Also reads the tracing
// options shared by every bench main: `-trace off|counters|full[:cap]`
// (env SPDAG_TRACE) configures the process tracer before any runtime
// exists — a malformed spec prints the parse error and exits(2) — and
// `-tracefile <path>` (env SPDAG_TRACEFILE) makes json_write() export the
// rings as Chrome/Perfetto trace-event JSON at exit.
void json_open(const options& opts, std::string bench_name);
bool json_enabled();
void json_add(json_record rec);  // thread-safe
// Compact form for plain rate benches: `ops` work items per repetition,
// `wall_sum_s` total measured seconds over `iters` repetitions.
void json_add_rate(const std::string& name, const std::string& spec,
                   std::size_t proc, int runs, double ops, double wall_sum_s,
                   double iters);
// Writes the document. Returns 0 when disabled or written cleanly, 1 on an
// I/O failure (reported to stderr) so mains can propagate it as their exit
// code.
int json_write();

}  // namespace spdag::harness
