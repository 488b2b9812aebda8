#include "service/service.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/spin_wait.hpp"

namespace spdag {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) noexcept {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

// Trace payloads are 32-bit; microseconds saturate at ~71 minutes.
std::uint32_t clamp_us(std::uint64_t ns) noexcept {
  const std::uint64_t us = ns / 1000;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(us, 0xffffffffULL));
}

}  // namespace

// --- ticket -----------------------------------------------------------------

bool ticket::wait() {
  if (s_ == nullptr) return false;
  wait_while(s_->state, detail::ticket_state::pending);
  return s_->state.load(std::memory_order_acquire) ==
         detail::ticket_state::completed;
}

bool ticket::ready() const {
  return s_ == nullptr || s_->state.load(std::memory_order_acquire) !=
                              detail::ticket_state::pending;
}

void ticket::release() noexcept {
  if (s_ == nullptr) return;
  s_->svc->release_ref(s_);
  s_ = nullptr;
}

// --- dag_service ------------------------------------------------------------

dag_service::dag_service(service_config cfg)
    : cfg_(std::move(cfg)), rt_(cfg_.rt) {
  rt_.sched().begin_service(rt_.engine());
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

dag_service::~dag_service() { shutdown(drain_mode::drain); }

ticket dag_service::submit_body(vertex_body job) {
  obs::emit(obs::ev_submit);
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!admit()) {
    obs::emit(obs::ev_reject);
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    return ticket{};
  }
  detail::ticket_state* t = tickets_.create();
  t->svc = this;
  t->job = std::move(job);
  // Runs on the worker that pops the launcher, inside execute(): chain()
  // on a vertex with no fin builds make()'s (root, final) pair from that
  // worker's magazines. The root runs the job; the final vertex, which the
  // engine enqueues only after the root's entire nested computation
  // signals, carries the completion. No stop vertex: this is what service
  // mode replaces run()'s termination protocol with. Publishing the root
  // is the body's last act, so nothing touches the ticket's launcher
  // after a completion can free the ticket.
  t->launcher.external = true;
  t->launcher.body = [this, t] {
    finish_then(std::move(t->job), [this, t] { complete(t); });
  };
  t->submit_tp = clock::now();
  detail::ticket_state* head = inbox_.load(std::memory_order_relaxed);
  do {
    t->next = head;
  } while (!inbox_.compare_exchange_weak(head, t, std::memory_order_seq_cst,
                                         std::memory_order_relaxed));
  // Only the push that makes the inbox non-empty can find the dispatcher
  // asleep: it sleeps only after it has seen the inbox empty.
  if (head == nullptr) wake_dispatcher();
  return ticket{t};
}

bool dag_service::admit() {
  if (stop_.load(std::memory_order_acquire)) return false;  // fast path only
  const std::size_t cap = cfg_.max_inflight;
  for (;;) {
    std::size_t cur = inflight_.load(std::memory_order_acquire);
    if (cap != 0 && cur >= cap) {
      if (cfg_.on_full == admission_policy::reject) return false;
      n_blocked_.fetch_add(1, std::memory_order_relaxed);
      const auto slot_or_stop = [&] {
        return stop_.load(std::memory_order_acquire) ||
               inflight_.load(std::memory_order_acquire) < cap;
      };
      if (!spin_until(slot_or_stop)) {
        std::unique_lock<std::mutex> lk(admit_mu_);
        admit_cv_.wait(lk, slot_or_stop);
      }
      if (stop_.load(std::memory_order_acquire)) return false;
      continue;  // re-run the CAS race for the freed slot
    }
    // Reserve the slot FIRST, then re-check stop_. The authoritative stop
    // check must come after the increment so the dispatcher's drain-exit
    // test (stop_ && inflight_ == 0) can never pass between our stop check
    // and our increment — any admission it could miss is in inflight_
    // before it looks. That ordering argument is store-buffering shaped (we
    // write inflight_ then read stop_; the dispatcher reads stop_ then
    // inflight_), which acquire/release alone does not forbid — hence
    // seq_cst here, on shutdown()'s stop_ store, and on the dispatcher's
    // exit-check loads.
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
      if (stop_.load(std::memory_order_seq_cst)) {
        // Shutdown won: roll the reservation back and reject. The transient
        // increment is harmless — it can only make the dispatcher poll once
        // more, never exit early.
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lk(admit_mu_);
        }
        admit_cv_.notify_all();
        return false;
      }
      std::size_t peak = peak_inflight_.load(std::memory_order_relaxed);
      while (cur + 1 > peak &&
             !peak_inflight_.compare_exchange_weak(
                 peak, cur + 1, std::memory_order_relaxed)) {
      }
      obs::gauge_add(obs::g_inflight, 1);
      return true;
    }
  }
}

detail::ticket_state* dag_service::take_inbox() noexcept {
  // Pushes prepend, so the taken list is newest first: reverse it to
  // dispatch in arrival order. The acquire pairs with every push's release
  // (each push is an RMW, so all of them sit in one release sequence).
  detail::ticket_state* newest = inbox_.exchange(nullptr,
                                                 std::memory_order_acquire);
  detail::ticket_state* oldest = nullptr;
  while (newest != nullptr) {
    detail::ticket_state* next = newest->next;
    newest->next = oldest;
    oldest = newest;
    newest = next;
  }
  return oldest;
}

void dag_service::dispatch(detail::ticket_state* t) {
  t->dispatch_tp = clock::now();
  const std::uint64_t queue_ns = elapsed_ns(t->submit_tp, t->dispatch_tp);
  obs::emit(obs::ev_admit, 0, clamp_us(queue_ns));
  n_admitted_.fetch_add(1, std::memory_order_relaxed);
  queue_hist_.record(queue_ns);
  rt_.engine().add(&t->launcher);
}

void dag_service::reject_queued(detail::ticket_state* t) {
  obs::emit(obs::ev_reject);
  n_rejected_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  obs::gauge_add(obs::g_inflight, -1);
  resolve(t, detail::ticket_state::rejected);
}

void dag_service::complete(detail::ticket_state* t) {
  // Runs on a worker thread, inside execute() of the submission's final
  // vertex — which is still live, so an idle trim cannot be concurrent with
  // anything this function does.
  const auto now = clock::now();
  const std::uint64_t sojourn_ns = elapsed_ns(t->submit_tp, now);
  const std::uint64_t exec_ns = elapsed_ns(t->dispatch_tp, now);
  sojourn_hist_.record(sojourn_ns);
  exec_hist_.record(exec_ns);
  obs::emit(obs::ev_submit_complete, 0, clamp_us(sojourn_ns));
  n_completed_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  obs::gauge_add(obs::g_inflight, -1);
  // The empty critical section pairs the notify with admit_cv_'s predicate
  // (which reads atomics), closing the missed-wakeup window. The dispatcher
  // needs no wake: its drain polls and its idle timer runs on its own.
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
  }
  admit_cv_.notify_one();
  resolve(t, detail::ticket_state::completed);
}

void dag_service::resolve(detail::ticket_state* t,
                          std::uint32_t outcome) noexcept {
  // The service's reference keeps `t` alive across the notify, even if the
  // client wakes and drops its ticket at once.
  wake(t->state, outcome);
  release_ref(t);
}

void dag_service::release_ref(detail::ticket_state* t) noexcept {
  if (t->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) tickets_.destroy(t);
}

void dag_service::dispatcher_main() {
  // The dispatcher reads no cell of the runtime's pools (tickets come from
  // tickets_, which no trim releases), so unlike a worker it holds no
  // epoch pin (src/mem/epoch.hpp); the trims it runs pin what they walk.
  for (;;) {
    if (detail::ticket_state* t = take_inbox()) {
      trim_settled_ = false;
      while (t != nullptr) {
        // Read the link first: once dispatched, `t` may complete and be
        // freed before dispatch() returns.
        detail::ticket_state* next = t->next;
        if (stop_.load(std::memory_order_acquire) &&
            reject_pending_.load(std::memory_order_acquire)) {
          reject_queued(t);
        } else {
          dispatch(t);
          maybe_busy_trim();
        }
        t = next;
      }
      continue;
    }
    if (stop_.load(std::memory_order_seq_cst)) {
      // Drain protocol: exit only when nothing is admitted-but-incomplete.
      // A submitter that won admission just before stop_ may not have
      // pushed yet — inflight_ covers that window (admit() increments it
      // BEFORE its authoritative stop_ check), and a ticket in the inbox
      // holds its slot too, so keep polling. seq_cst pairs with admit()'s
      // seq_cst increment/check: see the store-buffering note there.
      if (inflight_.load(std::memory_order_seq_cst) == 0) return;
      std::unique_lock<std::mutex> lk(dispatch_mu_);
      dispatch_cv_.wait_for(lk, std::chrono::milliseconds(1));
      continue;
    }
    // Empty inbox: spin, then sleep until a push or shutdown wakes us, or
    // until the idle timer fires (only while a trim could release
    // something). The sleep is announced in dispatcher_asleep_ under
    // dispatch_mu_ and the inbox re-checked after it; the announcement and
    // the re-check are seq_cst, like the push's CAS and wake_dispatcher()'s
    // read, so either the re-check sees the push or the pusher sees the
    // announcement.
    const auto woken = [this] {
      return inbox_.load(std::memory_order_seq_cst) != nullptr ||
             stop_.load(std::memory_order_seq_cst);
    };
    if (spin_until(woken)) continue;
    bool idle = false;
    {
      std::unique_lock<std::mutex> lk(dispatch_mu_);
      dispatcher_asleep_.store(true, std::memory_order_seq_cst);
      if (!woken()) {
        const auto called = [this] {
          return !dispatcher_asleep_.load(std::memory_order_relaxed);
        };
        if (cfg_.idle_trim_after.count() > 0 && !trim_settled_) {
          idle = !dispatch_cv_.wait_for(lk, cfg_.idle_trim_after, called);
        } else {
          dispatch_cv_.wait(lk, called);
        }
      }
      dispatcher_asleep_.store(false, std::memory_order_relaxed);
    }
    if (idle) trim_settled_ = try_idle_trim();
  }
}

void dag_service::wake_dispatcher() {
  if (!dispatcher_asleep_.load(std::memory_order_seq_cst) ||
      !dispatcher_asleep_.exchange(false, std::memory_order_seq_cst)) {
    return;
  }
  // The empty critical section orders the notify after the dispatcher's
  // wait began (it announced under dispatch_mu_).
  {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
  }
  dispatch_cv_.notify_one();
}

void dag_service::maybe_busy_trim() {
  // Dispatch-count cadence; dispatcher-only, so the counter needs no
  // atomicity. Unlike the idle trim there is NO quiescence check:
  // trim_pools_live() is built for concurrent traffic — fully-free slabs
  // go to epoch limbo and are freed only after the 2-epoch delay.
  if (cfg_.busy_trim_every == 0) return;
  if (++dispatches_since_busy_trim_ < cfg_.busy_trim_every) return;
  dispatches_since_busy_trim_ = 0;
  std::size_t reclaimed = 0;
  const std::size_t retired = rt_.engine().trim_pools_live(&reclaimed);
  n_busy_trims_.fetch_add(1, std::memory_order_relaxed);
  n_slabs_retired_.fetch_add(retired, std::memory_order_relaxed);
  n_slabs_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
}

bool dag_service::try_idle_trim() {
  // Trim safety. A quiescent trim needs no concurrent traffic on the
  // registry's pools, and only workers allocate or free cells in them,
  // inside execute(), which includes building each submission's pair (its
  // launcher's body) and running offloaded drains. Clients touch only
  // tickets_, which no trim releases, and the dispatcher only stamps
  // tickets and injects their launchers. The dispatcher is the only thread
  // that injects work, and it is here: so once nothing is in flight and
  // the workers are seen idle below, no execute() can begin until we
  // return. A ticket between its pop and its build is covered by
  // inflight_ != 0, and one admitted meanwhile waits in the inbox. A vertex
  // a worker holds in its slot between two executes (scheduler_base::
  // enqueue) is live, so live_vertices() covers it exactly as it covers a
  // deque's contents, and drains_pending() covers a held drain.
  //
  // Returns true when the pools are settled: quiescent and trimmed, so
  // nothing can change them before the next dispatch and the dispatcher's
  // next sleep needs no timer.
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  // inflight == 0 means every completion body ran, but the LAST worker may
  // still be in execute()'s epilogue (final vertex not yet recycled, its
  // busy flag not yet cleared). That window is short and shrinking — no new
  // work can enter while the dispatcher is here — so wait it out boundedly
  // and give up harmlessly if an assumption breaks. try_trim_pools
  // re-verifies once more, so a mistimed fire degrades to `return false`.
  dag_engine& eng = rt_.engine();
  scheduler_base& sch = rt_.sched();
  backoff b;
  for (int spin = 0; spin < 4096; ++spin) {
    if (eng.live_vertices() == 0 && sch.service_idle()) break;
    b.pause();
  }
  if (eng.live_vertices() != 0 || !sch.service_idle()) return false;
  // Idempotence: skip when nothing was freed since the last trim
  // (comparing against the post-trim snapshot, not zero — trims leave a
  // residue of free cells in pinned slabs), but re-arm the moment new
  // traffic moves the retained count.
  if (rt_.pools().totals().retained() == trimmed_retained_) return true;
  std::size_t released = 0;
  if (!eng.try_trim_pools(&released)) return false;
  trimmed_retained_ = rt_.pools().totals().retained();
  n_idle_trims_.fetch_add(1, std::memory_order_relaxed);
  n_slabs_released_.fetch_add(released, std::memory_order_relaxed);
  return true;
}

void dag_service::shutdown(drain_mode mode) {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // Mode before flag: a reader that acquires stop_ sees the mode.
    // seq_cst store pairs with admit()'s reserve-then-check (see the
    // store-buffering note there).
    reject_pending_.store(mode == drain_mode::reject,
                          std::memory_order_release);
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(admit_mu_);
    }
    admit_cv_.notify_all();
    wake_dispatcher();
  }
  std::lock_guard<std::mutex> lk(join_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
  if (!ended_service_) {
    // Spins until the scheduler is empty of service work, then detaches the
    // engine; after this the workers sleep until destruction.
    rt_.sched().end_service();
    ended_service_ = true;
  }
}

service_stats dag_service::stats() const {
  service_stats s;
  s.submitted = n_submitted_.load(std::memory_order_relaxed);
  s.admitted = n_admitted_.load(std::memory_order_relaxed);
  s.rejected = n_rejected_.load(std::memory_order_relaxed);
  s.completed = n_completed_.load(std::memory_order_relaxed);
  s.blocked = n_blocked_.load(std::memory_order_relaxed);
  s.idle_trims = n_idle_trims_.load(std::memory_order_relaxed);
  s.slabs_released = n_slabs_released_.load(std::memory_order_relaxed);
  s.busy_trims = n_busy_trims_.load(std::memory_order_relaxed);
  s.slabs_retired = n_slabs_retired_.load(std::memory_order_relaxed);
  s.slabs_reclaimed = n_slabs_reclaimed_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.peak_inflight = peak_inflight_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace spdag
