#pragma once
// dag_service: a resident, multi-tenant sp-dag runtime.
//
// Everything below src/sched/ is batch-shaped: runtime::run() injects one
// root, blocks the caller, and returns at quiescence. A service workload is
// the opposite shape — many client threads, each submitting independent
// dags at its own rate, against ONE persistent worker pool that amortizes
// thread creation, pool warm-up and counter-tree state across submissions.
// dag_service provides that shape:
//
//   spdag::dag_service svc({.rt = {.workers = 4, .sched = "private"}});
//   auto t = svc.submit([] { spdag::fork2([] { work(); }, [] { work(); }); });
//   if (t.valid()) t.wait();
//
// Structure (one instance owns):
//   * a `runtime` (either scheduler spec) attached in resident-service mode
//     (scheduler_base::begin_service): workers execute whatever the engine
//     hands them, with no per-run stop vertex — each submission's final
//     vertex instead carries a completion body that fulfills its ticket.
//   * no thread of its own. An admitted client stamps its ticket and
//     injects the ticket's embedded launcher vertex through the scheduler's
//     external enqueue path, the one run() uses for its root, so a
//     submission crosses one hand-off and wakes at most one worker. The
//     worker that pops a launcher builds the submission's (root, final)
//     pair (dag_engine::chain on a vertex with no fin), so the pair's cells
//     are allocated from that worker's magazines and, unless a thief takes
//     part of the dag, freed back to them — the in-counter's bookkeeping
//     stays on the core that uses it.
//   * a ticket pool of its own (not the runtime's registry), so client
//     threads allocate and free tickets without touching any pool a trim
//     releases.
//   * bounded admission: at most max_inflight submissions between admit and
//     complete; past the cap submit() blocks (default) or rejects, per
//     admission_policy. Both outcomes are visible in stats().
//   * every wait spins for spin_bound before it sleeps (util/spin_wait.hpp):
//     a blocked submitter's wait for a slot, and ticket::wait(). At
//     moderate rates a submission therefore crosses no futex wake-up at
//     all: an idle worker is still spinning when it arrives, and the
//     client's wait ends within the spin. A blocked submitter sleeps on
//     admit_cv_.
//   * a quiescent trim on request: trim_pools() flushes the magazines and
//     returns fully-free slabs upstream, so slab memory retained by a burst
//     can drain back between bursts, as runtime::trim_pools() does between
//     run()s. It closes admission while it runs; why that excludes every
//     other user of the pools is argued above its definition.
//   * a BUSY trim: every busy_trim_every submissions, the admitted client
//     calls dag_engine::trim_pools_live() before it injects, which needs no
//     quiescence window at all — it retires fully-free slabs into epoch
//     limbo (src/mem/epoch.hpp) and frees them after the 2-epoch delay. A
//     service under sustained traffic therefore returns burst memory while
//     submissions are still in flight, instead of waiting for a quiet
//     period the workload may never offer. The epoch protocol, not
//     exclusion, is what makes this trim safe.
//
// Lifetime: tickets are cells of the service's ticket pool and MUST NOT
// outlive the service. Destruction runs shutdown(drain_mode::drain):
// already-admitted submissions complete, late submit() calls reject.
//
// Observability: submissions emit the ev_submit / ev_admit / ev_reject /
// ev_submit_complete instants and maintain the g_inflight gauge
// (src/obs/trace.hpp), and the service keeps three lock-free latency
// histograms — queueing (submit→launcher start), execution (launcher
// start→complete) and sojourn (submit→complete) — so
// bench/service_traffic.cpp can separate time spent waiting for admission
// and a worker from time spent computing.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

#include "dag/vertex.hpp"
#include "mem/slab_pool.hpp"
#include "sched/runtime.hpp"
#include "util/histogram.hpp"

namespace spdag {

class dag_service;

// What submit() does when inflight == max_inflight.
enum class admission_policy {
  block,   // wait until a completion frees a slot (or shutdown rejects us)
  reject,  // fail fast: submit() returns an invalid ticket
};

struct service_config {
  runtime_config rt = {};

  // Ceiling on submissions between admission and completion; 0 = unbounded.
  std::size_t max_inflight = 1024;
  admission_policy on_full = admission_policy::block;

  // Submission-count cadence of the live (epoch-based) busy trim: every
  // this many submissions, the submitting client calls
  // dag_engine::trim_pools_live() once it is admitted. Zero disables it.
  std::size_t busy_trim_every = 256;
};

// Monotone counters + gauges, readable at any time (fields may be a few
// events skewed from each other mid-run; each is internally consistent).
// Conservation at quiescent shutdown: submitted == admitted + rejected and
// completed == admitted.
struct service_stats {
  std::uint64_t submitted = 0;       // submit() calls
  std::uint64_t admitted = 0;        // launchers that started their job
  std::uint64_t rejected = 0;        // refused at the door or at shutdown
  std::uint64_t completed = 0;       // final vertices that ran
  std::uint64_t blocked = 0;         // submits that had to wait for a slot
  std::uint64_t idle_trims = 0;      // trim_pools() calls that trimmed
  std::uint64_t slabs_released = 0;  // slabs those trims returned upstream
  std::uint64_t busy_trims = 0;      // live (epoch) trims run under traffic
  std::uint64_t slabs_retired = 0;   // slabs busy trims parked in epoch limbo
  std::uint64_t slabs_reclaimed = 0; // limbo slabs freed after the 2-epoch
                                     // delay (by any reclaim sweep)
  std::size_t inflight = 0;          // snapshot: admitted, not yet complete
  std::size_t peak_inflight = 0;
};

namespace detail {

// Shared completion record behind a ticket, and the vertex that launches
// it on a worker. Pooled; two references — the client's ticket and the
// service (held until the completion or rejection path has fulfilled it).
struct ticket_state {
  enum : std::uint32_t { pending, completed, rejected };

  dag_service* svc = nullptr;
  vertex_body job;  // moved into the root vertex at launch
  // What the client injects: an external vertex whose body runs on the
  // worker that pops it (dag_service::launch).
  vertex launcher;
  std::atomic<int> refs{2};
  // Clients wait() on it (util/spin_wait.hpp); set once.
  std::atomic<std::uint32_t> state{pending};
  std::chrono::steady_clock::time_point submit_tp;
  std::chrono::steady_clock::time_point start_tp;  // launcher start
};

}  // namespace detail

// Client-side handle to one submission. Move-only; waitable from exactly
// one thread at a time per handle (the state's atomic wait supports any
// number of waiters, but a ticket cannot be copied — clone by sharing
// results through the job itself). Must be destroyed before the service.
class ticket {
 public:
  ticket() noexcept = default;
  ticket(ticket&& o) noexcept : s_(o.s_) { o.s_ = nullptr; }
  ticket& operator=(ticket&& o) noexcept {
    if (this != &o) {
      release();
      s_ = o.s_;
      o.s_ = nullptr;
    }
    return *this;
  }
  ticket(const ticket&) = delete;
  ticket& operator=(const ticket&) = delete;
  ~ticket() { release(); }

  // False when the submission was refused at the door (reject policy or
  // shutdown) — there is nothing to wait on.
  bool valid() const noexcept { return s_ != nullptr; }

  // Blocks until the submission completes or is rejected at shutdown.
  // Returns true iff the dag ran to completion. Invalid tickets return
  // false immediately.
  bool wait();

  // Non-blocking probe: true once wait() would not block.
  bool ready() const;

 private:
  friend class dag_service;
  explicit ticket(detail::ticket_state* s) noexcept : s_(s) {}
  void release() noexcept;

  detail::ticket_state* s_ = nullptr;
};

class dag_service {
 public:
  enum class drain_mode {
    drain,   // complete everything already admitted, then stop
    reject,  // start nothing further: launchers that have not started
             // reject their submissions (started dags still complete)
  };

  explicit dag_service(service_config cfg = {});
  ~dag_service();  // shutdown(drain_mode::drain)

  dag_service(const dag_service&) = delete;
  dag_service& operator=(const dag_service&) = delete;

  // Submits one dag whose root body is `job` (same contract as
  // runtime::run's closure: nested fork2/finish_then/futures are fine; the
  // closure must fit vertex_body's inline storage). Thread-safe — any
  // number of client threads may submit concurrently. The returned ticket
  // is invalid iff the submission was rejected.
  template <typename F>
  ticket submit(F&& job) {
    return submit_body(vertex_body(std::forward<F>(job)));
  }
  ticket submit_body(vertex_body job);

  // Idempotent; concurrent callers race to pick the mode, everyone blocks
  // until the service is fully stopped. After shutdown, submit() rejects.
  void shutdown(drain_mode mode = drain_mode::drain);

  // Quiescent pool trim, callable from any thread: flushes the runtime's
  // magazines and returns fully-free slabs upstream (dag_engine::
  // try_trim_pools). Returns false, touching nothing, while a submission
  // is in flight, while another trim_pools() runs, or once shutdown has
  // begun. A submit() that arrives during the trim waits for it; it is
  // never rejected for it. Counted in stats().idle_trims/slabs_released.
  bool trim_pools();

  service_stats stats() const;

  // Latency distributions (ns), recorded per submission. Lock-free reads;
  // exact at quiescence.
  const latency_histogram& queue_latency() const noexcept { return queue_hist_; }
  const latency_histogram& exec_latency() const noexcept { return exec_hist_; }
  const latency_histogram& sojourn_latency() const noexcept {
    return sojourn_hist_;
  }

  runtime& rt() noexcept { return rt_; }

 private:
  friend class ticket;
  using clock = std::chrono::steady_clock;

  bool admit();
  void launch(detail::ticket_state* t);
  void complete(detail::ticket_state* t);
  void resolve(detail::ticket_state* t, std::uint32_t outcome) noexcept;
  void busy_trim();
  void release_ref(detail::ticket_state* t) noexcept;

  service_config cfg_;
  // Declared before rt_ so it outlives the workers that free into it.
  slab_pool<detail::ticket_state> tickets_{"service_ticket"};
  runtime rt_;

  // The fields below come in groups, each starting a cache line, so that
  // clients and the workers do not write one another's lines on every
  // submission.

  // Admission. inflight_ and trimming_ are the gate state; a blocked
  // submitter spins, then sleeps on admit_cv_, which every completion and
  // the end of every trim notify. trimming_ is true while trim_pools()
  // holds the door closed.
  alignas(cache_line_size) std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> peak_inflight_{0};
  std::atomic<bool> trimming_{false};
  alignas(cache_line_size) std::mutex admit_mu_;
  std::condition_variable admit_cv_;

  // Shutdown. stopping_ elects the mode-setter; stop_ is what admit() and
  // trim_pools() read, and reject_pending_ what a launcher reads.
  alignas(cache_line_size) std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> reject_pending_{false};
  std::mutex join_mu_;
  bool ended_service_ = false;  // guarded by join_mu_

  // Stats (relaxed monotone counters), grouped by the thread that writes
  // them: clients (the trims included), the final vertices, the launchers.
  alignas(cache_line_size) std::atomic<std::uint64_t> n_submitted_{0};
  std::atomic<std::uint64_t> n_blocked_{0};
  std::atomic<std::uint64_t> n_rejected_{0};
  std::atomic<std::uint64_t> n_idle_trims_{0};
  std::atomic<std::uint64_t> n_slabs_released_{0};
  std::atomic<std::uint64_t> n_busy_trims_{0};
  std::atomic<std::uint64_t> n_slabs_retired_{0};
  std::atomic<std::uint64_t> n_slabs_reclaimed_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> n_completed_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> n_admitted_{0};

  latency_histogram queue_hist_;
  alignas(cache_line_size) latency_histogram exec_hist_;
  latency_histogram sojourn_hist_;
};

}  // namespace spdag
