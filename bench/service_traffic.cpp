// Service traffic: open-loop arrival-rate workload for the resident
// dag_service runtime (src/service/), and the acceptance benchmark for the
// multi-tenant submission path.
//
// Setup: per configuration, one dag_service (persistent worker pool, either
// scheduler) receives n submissions per repetition from `clients` client
// threads. Arrivals are open-loop: each client draws exponential
// inter-arrival gaps (Poisson-ish process, bench PRNG) against an absolute
// schedule, so a slow service makes arrivals pile up against the admission
// cap instead of throttling the offered load. The first quarter of each
// client's submissions in a repetition is a burst: a 4096-iteration
// parallel_for_blocked, whose first 3 iterations count a leaf. The rest are
// a small fork2 spawn tree (3 leaves). Clients collect every ticket at the
// end of the batch so each repetition ends quiescent and conservation
// (3 leaves per completed submission) is checkable.
//
// Metrics: completed submissions/s, plus the three service latency
// distributions that separate where time goes:
//   queue_p*   — submit → launcher start (injection queue + worker wake)
//   exec_p*    — launcher start → completion (dag execution)
//   sojourn_p* — submit → completion (what a client experiences); this is
//                the record's lat_p50/p95/p99_ms.
// The service has no thread of its own, so each client pushes its
// launchers into the scheduler's mutexed injection queue itself.
// Service counters (submitted/admitted/completed/blocked/idle_trims/...)
// ride along in `extra` so the CI gate can assert conservation
// (completed == submitted - rejected) and that the quiescent trim worked.
// The service trims only when asked: after the last rep, outside the timed
// window, each config calls dag_service::trim_pools() (retrying for up to
// 200 ms, since the last worker may still be leaving its final vertex), and
// idle_trims/slabs_released count that explicit trim.
//
// Busy trim: the service runs with an aggressive busy_trim_every cadence
// (knob -busytrim, default 32 here vs the production default 256) and a
// small-slab / small-magazine alloc spec (pool:4096:256 — minimum rails),
// so the burst's frees overflow the per-worker magazines onto the global
// recycle list where trim_live() can see whole slabs drain. That
// demonstrates the epoch reclamation path end to end — busy_trims /
// slabs_retired / slabs_reclaimed ride in `extra` next to busy_trim_every,
// and whenever that cadence is nonzero the CI gate asserts that every
// record ran busy trims and that under sustained load some slabs actually
// made the full retire -> 2-epoch-delay -> reclaim trip while submissions
// were in flight (a busy trim runs only in an admitted submit() call).
// Submissions are built and freed on the workers, so without the burst the
// registry holds about one slab per pool; even with it, the cells the
// workers' magazines keep pin most slabs, and some documents record no
// reclaim at all (see the ROADMAP carry-over on slab locality).
// Default-geometry behaviour (big magazines strand cells; see the ROADMAP
// carry-over on magazine shedding) stays covered by every other bench.
//
// Scale knobs: -n / SPDAG_N (submissions per repetition, default 1<<12),
// -proc / SPDAG_PROC (workers), -runs / SPDAG_RUNS, -arrivalns (mean
// inter-arrival per client in ns, default 20000), -cap (max_inflight,
// default 256), -busytrim (busy-trim submission cadence, 0 disables).
// Telemetry: -json <path> / SPDAG_JSON writes one record per config
// (scripts/perf_smoke_gate.py --service consumes it).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dag/parallel_for.hpp"
#include "harness/bench_runner.hpp"
#include "obs/trace.hpp"
#include "sched/runtime.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace spdag;

// Exponential inter-arrival draw: -ln(u) * mean, u uniform in (0, 1).
std::uint64_t exp_gap_ns(xoshiro256& rng, double mean_ns) {
  const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
  const double gap = -std::log(u) * mean_ns;
  return gap > 0 ? static_cast<std::uint64_t>(gap) : 0;
}

// One client's batch: open-loop submissions against an absolute schedule,
// then wait on every ticket. Returns how many waits reported completion.
std::uint64_t run_client(dag_service& svc, std::uint64_t count,
                         double mean_gap_ns, std::uint64_t seed,
                         std::atomic<std::uint64_t>& leaves) {
  xoshiro256 rng(seed);
  std::vector<ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(count));
  auto next = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < count; ++i) {
    next += std::chrono::nanoseconds(exp_gap_ns(rng, mean_gap_ns));
    std::this_thread::sleep_until(next);  // past-due deadlines return at once
    if (i < count / 4) {
      tickets.push_back(svc.submit([&leaves] {
        parallel_for_blocked(0, 4096, 1, [&leaves](std::size_t j) {
          if (j < 3) leaves.fetch_add(1, std::memory_order_relaxed);
        });
      }));
      continue;
    }
    tickets.push_back(svc.submit([&leaves] {
      fork2([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); },
            [&leaves] {
              fork2(
                  [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); },
                  [&leaves] {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                  });
            });
    }));
  }
  std::uint64_t ok = 0;
  for (auto& t : tickets) {
    if (t.valid() && t.wait()) ++ok;
  }
  return ok;
}

double pct_ms(const latency_histogram& h, double q) {
  return static_cast<double>(h.percentile_ns(q)) * 1e-6;
}

void register_config(const std::string& sched_spec, std::size_t clients,
                     std::size_t workers, std::uint64_t n, double mean_gap_ns,
                     std::size_t cap, std::size_t busy_trim, int runs) {
  const std::string name =
      "service/" + sched_spec + "/clients:" + std::to_string(clients);
  benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& st) {
    service_config cfg;
    cfg.rt.workers = workers;
    cfg.rt.sched = sched_spec;
    cfg.rt.alloc = "pool:4096:256";  // see file comment: busy-trim geometry
    cfg.max_inflight = cap;
    cfg.on_full = admission_policy::block;
    cfg.busy_trim_every = busy_trim;
    dag_service svc(cfg);
    obs::tracer::instance().reset();  // summary covers this config only

    std::atomic<std::uint64_t> leaves{0};
    std::uint64_t ok_sum = 0;
    std::uint64_t offered = 0;
    double wall_sum_s = 0;
    for (auto _ : st) {
      std::atomic<std::uint64_t> ok{0};
      wall_timer t;
      std::vector<std::thread> pool;
      pool.reserve(clients);
      for (std::size_t c = 0; c < clients; ++c) {
        // Client 0 absorbs the division remainder so each repetition offers
        // exactly n submissions.
        const std::uint64_t share =
            n / clients + (c == 0 ? n % clients : 0);
        const std::uint64_t seed = 0x5eed0000 + 131 * c + offered;
        pool.emplace_back([&svc, &leaves, &ok, share, mean_gap_ns, seed] {
          ok.fetch_add(run_client(svc, share, mean_gap_ns, seed, leaves),
                       std::memory_order_relaxed);
        });
      }
      for (auto& th : pool) th.join();
      const double el = t.elapsed_s();
      st.SetIterationTime(el);
      wall_sum_s += el;
      ok_sum += ok.load(std::memory_order_relaxed);
      offered += n;
    }
    const auto trim_deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (!svc.trim_pools() &&
           std::chrono::steady_clock::now() < trim_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const auto s = svc.stats();
    st.counters["subs/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
    st.counters["sojourn_p99_ms"] = pct_ms(svc.sojourn_latency(), 0.99);
    st.counters["queue_p99_ms"] = pct_ms(svc.queue_latency(), 0.99);
    if (ok_sum != offered || s.completed != s.submitted - s.rejected ||
        leaves.load() != 3 * s.completed) {
      st.SkipWithError("service conservation violated");
    }
    if (harness::json_enabled()) {
      harness::json_record rec;
      rec.name = name;
      rec.spec = sched_spec;
      rec.sched = sched_spec;
      rec.proc = workers;
      rec.runs = runs;
      const double iters = static_cast<double>(st.iterations());
      rec.wall_s = iters > 0 ? wall_sum_s / iters : 0.0;
      rec.ops_per_s = wall_sum_s > 0
                          ? static_cast<double>(s.completed) / wall_sum_s
                          : 0.0;
      rec.lat_p50_ms = pct_ms(svc.sojourn_latency(), 0.50);
      rec.lat_p95_ms = pct_ms(svc.sojourn_latency(), 0.95);
      rec.lat_p99_ms = pct_ms(svc.sojourn_latency(), 0.99);
      rec.pools = svc.rt().pools().rows();
      rec.pool_totals = svc.rt().pools().totals();
      rec.outsets = svc.rt().outsets().totals();
      rec.sched_totals = svc.rt().sched().totals();
      rec.extra.emplace_back("clients", static_cast<double>(clients));
      rec.extra.emplace_back("queue_p50_ms", pct_ms(svc.queue_latency(), 0.50));
      rec.extra.emplace_back("queue_p95_ms", pct_ms(svc.queue_latency(), 0.95));
      rec.extra.emplace_back("queue_p99_ms", pct_ms(svc.queue_latency(), 0.99));
      rec.extra.emplace_back("exec_p50_ms", pct_ms(svc.exec_latency(), 0.50));
      rec.extra.emplace_back("exec_p95_ms", pct_ms(svc.exec_latency(), 0.95));
      rec.extra.emplace_back("exec_p99_ms", pct_ms(svc.exec_latency(), 0.99));
      rec.extra.emplace_back("submitted", static_cast<double>(s.submitted));
      rec.extra.emplace_back("admitted", static_cast<double>(s.admitted));
      rec.extra.emplace_back("rejected", static_cast<double>(s.rejected));
      rec.extra.emplace_back("completed", static_cast<double>(s.completed));
      rec.extra.emplace_back("blocked", static_cast<double>(s.blocked));
      rec.extra.emplace_back("idle_trims", static_cast<double>(s.idle_trims));
      rec.extra.emplace_back("slabs_released",
                             static_cast<double>(s.slabs_released));
      rec.extra.emplace_back("busy_trims", static_cast<double>(s.busy_trims));
      rec.extra.emplace_back("slabs_retired",
                             static_cast<double>(s.slabs_retired));
      rec.extra.emplace_back("slabs_reclaimed",
                             static_cast<double>(s.slabs_reclaimed));
      rec.extra.emplace_back("busy_trim_every",
                             static_cast<double>(busy_trim));
      rec.extra.emplace_back("peak_inflight",
                             static_cast<double>(s.peak_inflight));
      harness::json_add(std::move(rec));
    }
  })
      ->UseManualTime()
      ->Iterations(runs);
}

}  // namespace

int main(int argc, char** argv) {
  options opts(argc, argv);
  const auto common = harness::read_common(opts, /*default_n=*/1 << 12);
  harness::json_open(opts, "service_traffic");
  const double mean_gap_ns =
      static_cast<double>(opts.get_int("arrivalns", 20000));
  const std::size_t cap =
      static_cast<std::size_t>(opts.get_int("cap", 256));
  const std::size_t busy_trim =
      static_cast<std::size_t>(opts.get_int("busytrim", 32));

  // Client-count sweep against a fixed worker pool, for both schedulers:
  // the contention axis is concurrent submitters, not workers.
  const std::vector<std::string> scheds{"ws", "private"};
  const std::vector<std::size_t> client_counts{1, 2, 4};
  for (const auto& sched : scheds) {
    for (std::size_t c : client_counts) {
      register_config(sched, c, common.max_proc, common.n, mean_gap_ns, cap,
                      busy_trim, common.runs);
    }
  }

  std::printf(
      "# service: open-loop Poisson-ish arrivals into a resident dag_service; "
      "n=%llu per rep, workers=%zu, runs=%d, mean_gap=%.0fns, cap=%zu, "
      "busytrim=%zu; "
      "acceptance: completed == submitted - rejected, finite p99\n",
      static_cast<unsigned long long>(common.n), common.max_proc, common.runs,
      mean_gap_ns, cap, busy_trim);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return harness::json_write();
}
