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
}

dag_service::~dag_service() { shutdown(drain_mode::drain); }

ticket dag_service::submit_body(vertex_body job) {
  obs::emit(obs::ev_submit);
  const std::uint64_t seq =
      n_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!admit()) {
    obs::emit(obs::ev_reject);
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    return ticket{};
  }
  // Run while this submission holds its in-flight slot, so a busy trim
  // never overlaps trim_pools().
  if (cfg_.busy_trim_every != 0 && (seq + 1) % cfg_.busy_trim_every == 0) {
    busy_trim();
  }
  detail::ticket_state* t = tickets_.create();
  t->svc = this;
  t->job = std::move(job);
  t->launcher.external = true;
  t->launcher.body = [this, t] { launch(t); };
  t->submit_tp = clock::now();
  // The same external enqueue as run()'s root: a worker that pops the
  // launcher runs launch(t), and a sleeping worker is woken for it.
  rt_.engine().add(&t->launcher);
  return ticket{t};
}

bool dag_service::admit() {
  const std::size_t cap = cfg_.max_inflight;
  // What a waiting submitter waits for: a free slot behind an open door,
  // or shutdown.
  const auto may_enter = [&] {
    return stop_.load(std::memory_order_acquire) ||
           (!trimming_.load(std::memory_order_acquire) &&
            (cap == 0 || inflight_.load(std::memory_order_acquire) < cap));
  };
  const auto wait_to_enter = [&] {
    if (!spin_until(may_enter)) {
      std::unique_lock<std::mutex> lk(admit_mu_);
      admit_cv_.wait(lk, may_enter);
    }
  };
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return false;
    std::size_t cur = inflight_.load(std::memory_order_acquire);
    if (cap != 0 && cur >= cap) {
      if (cfg_.on_full == admission_policy::reject) return false;
      n_blocked_.fetch_add(1, std::memory_order_relaxed);
      wait_to_enter();
      continue;  // re-run the CAS race for the freed slot
    }
    // Reserve the slot FIRST, then check stop_ and trimming_. Each check
    // must come after the increment, so that shutdown()'s drain wait
    // (stop_, then inflight_ == 0) and trim_pools() (trimming_, then
    // inflight_ == 0) can never pass between our check and our increment:
    // any admission they could miss is in inflight_ before they look. The
    // ordering argument is store-buffering shaped (we write inflight_ then
    // read the flag; they write the flag then read inflight_), which
    // acquire/release alone does not forbid — hence seq_cst on all four.
    if (!inflight_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_seq_cst,
                                         std::memory_order_acquire)) {
      continue;
    }
    if (!stop_.load(std::memory_order_seq_cst) &&
        !trimming_.load(std::memory_order_seq_cst)) {
      std::size_t peak = peak_inflight_.load(std::memory_order_relaxed);
      while (cur + 1 > peak &&
             !peak_inflight_.compare_exchange_weak(
                 peak, cur + 1, std::memory_order_relaxed)) {
      }
      obs::gauge_add(obs::g_inflight, 1);
      return true;
    }
    // Shutdown or a trim won: roll the reservation back. The transient
    // increment is harmless: it can only make a drain wait poll once more
    // or a trim give up, never let either pass early. Shutdown rejects us
    // at the top of the loop; a trim holds us until its door reopens.
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lk(admit_mu_);
    }
    admit_cv_.notify_all();
    wait_to_enter();
  }
}

void dag_service::launch(detail::ticket_state* t) {
  // Runs on the worker that popped the launcher, inside execute().
  if (reject_pending_.load(std::memory_order_acquire)) {
    obs::emit(obs::ev_reject);
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    obs::gauge_add(obs::g_inflight, -1);
    // The last act: resolving can free `t`, and with it this body.
    resolve(t, detail::ticket_state::rejected);
    return;
  }
  t->start_tp = clock::now();
  const std::uint64_t queue_ns = elapsed_ns(t->submit_tp, t->start_tp);
  obs::emit(obs::ev_admit, 0, clamp_us(queue_ns));
  n_admitted_.fetch_add(1, std::memory_order_relaxed);
  queue_hist_.record(queue_ns);
  // chain() on a vertex with no fin builds make()'s (root, final) pair
  // from this worker's magazines. The root runs the job; the final vertex,
  // which the engine enqueues only after the root's entire nested
  // computation signals, carries the completion. No stop vertex: this is
  // what service mode replaces run()'s termination protocol with.
  // Publishing the root is the last act, so nothing touches the launcher
  // after a completion can free the ticket.
  finish_then(std::move(t->job), [this, t] { complete(t); });
}

void dag_service::complete(detail::ticket_state* t) {
  // Runs on a worker thread, inside execute() of the submission's final
  // vertex — which is still live, so trim_pools() cannot be concurrent
  // with anything this function does.
  const auto now = clock::now();
  const std::uint64_t sojourn_ns = elapsed_ns(t->submit_tp, now);
  const std::uint64_t exec_ns = elapsed_ns(t->start_tp, now);
  sojourn_hist_.record(sojourn_ns);
  exec_hist_.record(exec_ns);
  obs::emit(obs::ev_submit_complete, 0, clamp_us(sojourn_ns));
  n_completed_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  obs::gauge_add(obs::g_inflight, -1);
  // The empty critical section pairs the notify with admit_cv_'s predicate
  // (which reads atomics), closing the missed-wakeup window. shutdown()'s
  // drain wait polls and needs no wake.
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

void dag_service::busy_trim() {
  // No quiescence check: trim_pools_live() is built for concurrent traffic
  // — fully-free slabs go to epoch limbo and are freed only after the
  // 2-epoch delay. Concurrent busy trims serialize in the registry. The
  // caller pins nothing (it reads no cell of the runtime's pools); the
  // trim pins what it walks.
  std::size_t reclaimed = 0;
  const std::size_t retired = rt_.engine().trim_pools_live(&reclaimed);
  n_busy_trims_.fetch_add(1, std::memory_order_relaxed);
  n_slabs_retired_.fetch_add(retired, std::memory_order_relaxed);
  n_slabs_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
}

// Why a quiescent trim is safe while clients keep calling submit(). The
// trim releases slabs of the registry's pools, so no thread may use a
// cell of them meanwhile. Only workers allocate or free such cells, inside
// execute(), which includes a launcher's build of its pair and offloaded
// drains; clients touch only tickets_, which no trim releases. trim_pools()
// never overlaps:
//  * an execute(). In service mode work enters the scheduler only as a
//    launcher that an admitted client injects. The trim closes admission:
//    it raises trimming_ and then reads inflight_, while admit() raises
//    inflight_ and then reads trimming_, all four seq_cst. In the single
//    order of seq_cst operations one side comes first, so either the trim
//    sees the reservation and gives up, or the client sees the flag, rolls
//    its reservation back and waits for the door to reopen. So once the
//    trim has read inflight_ == 0, no launcher is queued or running and
//    none can be injected until it returns. What remains is the tail of
//    the last execute() (its vertex not yet recycled, its busy flag not
//    yet cleared), which it waits out below. A vertex a worker holds in
//    its slot between two executes (scheduler_base::enqueue) is live, so
//    live_vertices() covers it exactly as it covers a deque's contents,
//    and drains_pending() covers a held drain.
//  * a busy trim: the client that runs one holds an in-flight slot.
//  * another trim_pools(): the exchange on trimming_ admits one.
//  * shutdown()'s teardown: the trim reads stop_ after raising trimming_,
//    and shutdown() stores stop_ before it waits for trimming_ to clear,
//    all seq_cst, so either the trim backs off or shutdown() waits for it.
bool dag_service::trim_pools() {
  if (trimming_.exchange(true, std::memory_order_seq_cst)) return false;
  bool trimmed = false;
  if (!stop_.load(std::memory_order_seq_cst) &&
      inflight_.load(std::memory_order_seq_cst) == 0) {
    dag_engine& eng = rt_.engine();
    scheduler_base& sch = rt_.sched();
    const auto idle = [&] {
      return eng.live_vertices() == 0 && sch.service_idle();
    };
    // The tail of the last execute() is short and cannot grow while the
    // door is closed; wait it out boundedly and give up harmlessly if it
    // does not end. try_trim_pools() re-verifies live_vertices().
    backoff b;
    for (int spin = 0; spin < 4096 && !idle(); ++spin) b.pause();
    std::size_t released = 0;
    if (idle() && eng.try_trim_pools(&released)) {
      n_idle_trims_.fetch_add(1, std::memory_order_relaxed);
      n_slabs_released_.fetch_add(released, std::memory_order_relaxed);
      trimmed = true;
    }
  }
  trimming_.store(false, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
  }
  admit_cv_.notify_all();
  return trimmed;
}

void dag_service::shutdown(drain_mode mode) {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // Mode before flag, so that whoever has seen stop_ has seen the mode:
    // a launcher started after that rejects. The seq_cst store pairs with
    // admit()'s reserve-then-check and with trim_pools()' read of stop_.
    reject_pending_.store(mode == drain_mode::reject,
                          std::memory_order_release);
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(admit_mu_);
    }
    admit_cv_.notify_all();
  }
  std::lock_guard<std::mutex> lk(join_mu_);
  if (!ended_service_) {
    // Drain: wait until nothing is admitted-but-unresolved and no trim
    // runs. A submitter that won admission just before stop_ may not have
    // injected yet; inflight_ covers that window (admit() increments it
    // BEFORE its authoritative stop_ check), and after this wait no
    // launcher can be injected any more.
    backoff b;
    while (inflight_.load(std::memory_order_seq_cst) != 0 ||
           trimming_.load(std::memory_order_seq_cst)) {
      b.pause();
    }
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
