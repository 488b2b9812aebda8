#include "sched/private_deques.hpp"

#include <cassert>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "outset/outset.hpp"
#include "util/backoff.hpp"
#include "util/topology.hpp"

namespace spdag {

namespace {
thread_local int tls_pd_worker_id = -1;
thread_local private_deque_scheduler* tls_pd_scheduler = nullptr;
}  // namespace

private_deque_scheduler::private_deque_scheduler(private_deque_config cfg)
    : cfg_(cfg) {
  const std::size_t n = cfg_.workers == 0 ? hardware_core_count() : cfg_.workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<padded<worker>>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

private_deque_scheduler::~private_deque_scheduler() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
  // Structured teardown leaves nothing here: run() holds out for drain
  // quiescence, so queued drains at destruction can only come from direct
  // executor use (tests, unstructured embeddings). A drain task must run
  // exactly once or its cell leaks, so flush the queues and any hand-off
  // abandoned mid-transfer on this thread — workers are joined, so this is
  // single-threaded. Tasks that re-offload go through enqueue_drain again
  // and land in the injected queue (this thread is not a worker), which the
  // loop below keeps draining.
  auto run_leftover = [this](outset_drain_task* t) {
    t->run();
    drains_pending_.fetch_sub(1, std::memory_order_relaxed);
  };
  for (auto& w : workers_) {
    worker& me = w->value;
    if (outset_drain_task* t =
            me.drain_transfer.value.load(std::memory_order_acquire)) {
      me.drain_transfer.value.store(nullptr, std::memory_order_relaxed);
      run_leftover(t);
    }
    while (!me.drains.empty()) {
      outset_drain_task* t = me.drains.front();
      me.drains.pop_front();
      run_leftover(t);
    }
  }
  while (outset_drain_task* t = injected_drains_.pop()) run_leftover(t);
  assert(drains_pending_.load(std::memory_order_acquire) == 0 &&
         "drain accounting out of balance at teardown");
}

void private_deque_scheduler::enqueue(vertex* v) {
  if (tls_pd_scheduler == this && tls_pd_worker_id >= 0) {
    // Owner-only push; no synchronization by design.
    workers_[static_cast<std::size_t>(tls_pd_worker_id)]->value.tasks.push_back(v);
  } else {
    injected_.push(v);
  }
  obs::gauge_add(obs::g_runnable, 1);
  unpark_some();
}

void private_deque_scheduler::enqueue_drain(outset_drain_task* t) {
  if (workers_.size() > 1) {
    if (tls_pd_scheduler == this && tls_pd_worker_id >= 0) {
      // Worker path: queue privately. communicate() answers steal requests
      // from it, and the idle path below runs what nobody asked for.
      worker& me = workers_[static_cast<std::size_t>(tls_pd_worker_id)]->value;
      if (me.drains.size() < drain_queue_cap) {
        drains_pending_.fetch_add(1, std::memory_order_acq_rel);
        me.drains.push_back(t);
        obs::gauge_add(obs::g_drains_pending, 1);
        obs::emit(obs::ev_drain_enqueue);
        unpark_some();
        return;
      }
      // Saturated: fall through to the inline trampoline rather than grow
      // an unbounded private backlog thieves may never ask for.
    } else {
      // External thread: nothing private to queue on; inject for an idle
      // worker to adopt (the dual of the vertex injection queue).
      drains_pending_.fetch_add(1, std::memory_order_acq_rel);
      injected_drains_.push(t);
      obs::gauge_add(obs::g_drains_pending, 1);
      obs::emit(obs::ev_drain_enqueue);
      unpark_some();
      return;
    }
  }
  // Single worker (no thief to hand to) or saturated queue: run inline
  // through the flattening trampoline, same as the serial executor.
  executor::enqueue_drain(t);
}

void private_deque_scheduler::run_drain(std::size_t id, outset_drain_task* t,
                                        bool migrated) {
  {
    obs::span_guard sg(obs::sp_drain);
    t->run();
  }
  obs::gauge_add(obs::g_drains_pending, -1);
  worker& me = workers_[id]->value;
  me.drains_executed.fetch_add(1, std::memory_order_relaxed);
  if (migrated) {
    me.drains_stolen.fetch_add(1, std::memory_order_relaxed);
    obs::emit(obs::ev_drain_steal);
  }
  // Decrement AFTER run(), and after any re-offloads the task made bumped
  // the count: pending==0 must mean fully delivered, not merely dequeued
  // (run() spins on it for quiescence).
  drains_pending_.fetch_sub(1, std::memory_order_acq_rel);
}

bool private_deque_scheduler::any_busy() const {
  for (const auto& w : workers_) {
    if (w->value.busy.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void private_deque_scheduler::unpark_some() {
  if (parked_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }
}

void private_deque_scheduler::communicate(std::size_t id, bool can_give) {
  // communicate() is this scheduler's natural epoch communication point: it
  // runs only between tasks (busy-loop top, idle path, try_steal's answer
  // spin), when the worker provably holds no stale runtime pointers — so
  // refreshing the pin and occasionally driving advance/reclaim here is
  // legal, and it keeps epoch progress proportional to scheduler activity.
  mem::epoch::tick();
  worker& me = workers_[id]->value;
  const int thief = me.request.value.load(std::memory_order_acquire);
  if (thief == no_request) return;
  worker& other = workers_[static_cast<std::size_t>(thief)]->value;
  if (can_give && !me.tasks.empty()) {
    // Serve the OLDEST task: it is the root of the largest unexplored
    // subcomputation, the standard steal-one-from-the-top heuristic.
    vertex* v = me.tasks.front();
    me.tasks.pop_front();
    other.transfer.value.store(v, std::memory_order_release);
    me.requests_served.fetch_add(1, std::memory_order_relaxed);
  } else if (!me.drains.empty()) {
    // No vertex to spare, but broadcast bookkeeping is queued: hand the
    // OLDEST drain (nearest the out-set root, the widest subtree) to the
    // thief. The drain_transfer store must precede the drain_given()
    // publication — the thief's acquire on `transfer` is what orders it.
    outset_drain_task* t = me.drains.front();
    me.drains.pop_front();
    other.drain_transfer.value.store(t, std::memory_order_release);
    other.transfer.value.store(drain_given(), std::memory_order_release);
    me.drains_handed_off.fetch_add(1, std::memory_order_relaxed);
    obs::emit(obs::ev_drain_handoff, static_cast<std::uint16_t>(thief));
    me.requests_served.fetch_add(1, std::memory_order_relaxed);
  } else {
    other.transfer.value.store(declined(), std::memory_order_release);
    me.requests_declined.fetch_add(1, std::memory_order_relaxed);
  }
  me.request.value.store(no_request, std::memory_order_release);
}

vertex* private_deque_scheduler::try_steal(std::size_t id, std::size_t victim,
                                           outset_drain_task** drain_out) {
  worker& me = workers_[id]->value;
  me.transfer.value.store(waiting(), std::memory_order_release);
  int expect = no_request;
  if (!workers_[victim]->value.request.value.compare_exchange_strong(
          expect, static_cast<int>(id), std::memory_order_acq_rel)) {
    return nullptr;  // another thief beat us to this victim
  }
  // Spin for the answer; keep declining our own incoming requests so two
  // thieves waiting on each other cannot deadlock (an idle thief may still
  // hand off its own queued drains, which only helps).
  backoff b;
  for (;;) {
    vertex* v = me.transfer.value.load(std::memory_order_acquire);
    if (v == drain_given()) {
      *drain_out = me.drain_transfer.value.load(std::memory_order_acquire);
      me.drain_transfer.value.store(nullptr, std::memory_order_relaxed);
      return nullptr;
    }
    if (v != waiting()) {
      return v == declined() ? nullptr : v;
    }
    communicate(id, /*can_give=*/false);
    if (shutdown_.load(std::memory_order_acquire)) return nullptr;
    b.pause();
  }
}

void private_deque_scheduler::worker_main(std::size_t id) {
  tls_pd_worker_id = static_cast<int>(id);
  tls_pd_scheduler = this;
  if (cfg_.pin_threads) pin_current_thread(id);
  xoshiro256 rng(mix64(0xa076'1d64'78bd'642fULL ^ (id + 1)));
  worker& me = workers_[id]->value;

  // Same protocol as the ws scheduler (scheduler.cpp): pinned for the whole
  // loop so every stale read is epoch-covered, refreshed at the loop top,
  // ticked inside communicate(), unpinned across the park below.
  mem::epoch::pin_guard eg;

  while (!shutdown_.load(std::memory_order_acquire)) {
    mem::epoch::refresh();
    if (!me.tasks.empty()) {
      // Busy: poll for steal requests, then run the newest task (LIFO for
      // locality; thieves get the oldest through communicate()).
      communicate(id, /*can_give=*/me.tasks.size() > 1);
      vertex* v = me.tasks.back();
      me.tasks.pop_back();
      dag_engine* eng = engine_.load(std::memory_order_acquire);
      assert(eng != nullptr && "work found with no engine attached");
      const bool is_final = (v == stop_vertex_.load(std::memory_order_relaxed));
      // Same protocol as the ws scheduler (scheduler.cpp): every hand-off
      // that lets another thread learn of this vertex's effects is a release
      // operation sequenced after the store of true: a depart, the service's
      // inflight_ decrement, or, once execute() has returned, the transfer
      // store in communicate() that gives a child to a thief. A reader that
      // learned of one and then finds the flag false knows this execute()
      // has finished.
      me.busy.store(true, std::memory_order_relaxed);
      obs::gauge_add(obs::g_runnable, -1);
      {
        obs::span_guard sg(obs::sp_work);
        eng->execute(v);
      }
      me.busy.store(false, std::memory_order_release);
      me.executions.fetch_add(1, std::memory_order_relaxed);
      if (is_final) {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_.store(true, std::memory_order_release);
        done_cv_.notify_all();
      }
      continue;
    }

    // Idle: decline anything pending, drain the injection queue, then run
    // queued broadcast work, then go thieving. Own drains come before
    // stealing — an idle worker IS the idle core the hand-off exists to
    // reach, so running the backlog here beats shipping it anywhere — and
    // before parking, so a worker never sleeps on deliverable waiters.
    communicate(id, /*can_give=*/false);
    if (vertex* v = injected_.pop()) {
      me.tasks.push_back(v);
      continue;
    }
    if (!me.drains.empty()) {
      outset_drain_task* t = me.drains.front();
      me.drains.pop_front();
      run_drain(id, t, /*migrated=*/false);
      continue;
    }
    if (outset_drain_task* t = injected_drains_.pop()) {
      run_drain(id, t, /*migrated=*/true);
      continue;
    }
    bool got = false;
    for (std::size_t attempt = 0;
         attempt < steal_attempts_before_park && !got; ++attempt) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.below(workers_.size()));
      if (victim == id) continue;
      outset_drain_task* drain = nullptr;
      vertex* v = nullptr;
      {
        // Scope the steal span around the request round-trip only, so a
        // handed-off drain below lands in the drain bucket, not steal.
        obs::span_guard sg(obs::sp_steal);
        obs::emit(obs::ev_steal_attempt, static_cast<std::uint16_t>(victim));
        v = try_steal(id, victim, &drain);
      }
      if (v != nullptr) {
        me.tasks.push_back(v);
        me.steals.fetch_add(1, std::memory_order_relaxed);
        obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
        got = true;
      } else if (drain != nullptr) {
        // The victim had no vertex to spare and answered with broadcast
        // work instead: the receiver-initiated drain hand-off.
        run_drain(id, drain, /*migrated=*/true);
        got = true;
      } else {
        me.failed_steals.fetch_add(1, std::memory_order_relaxed);
        communicate(id, /*can_give=*/false);
      }
      if (shutdown_.load(std::memory_order_acquire)) return;
    }
    if (got) continue;

    // Park briefly; the timeout bounds both lost wakeups and the extra
    // latency a spinning thief sees while we sleep. Unpin across the wait
    // (a sleeping worker must not stall the global epoch); the shutdown
    // check is an if-guard, not a break, so the unpin/pin bracket stays
    // balanced and the loop condition re-checks shutdown.
    mem::epoch::unpin();
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      if (!shutdown_.load(std::memory_order_acquire)) {
        me.parks.fetch_add(1, std::memory_order_relaxed);
        parked_.fetch_add(1, std::memory_order_acq_rel);
        {
          obs::span_guard sg(obs::sp_idle);
          park_cv_.wait_for(lock, park_timeout);
        }
        parked_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    mem::epoch::pin();
  }
}

void private_deque_scheduler::begin_service(dag_engine& engine) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(done_.load(std::memory_order_acquire) &&
         "begin_service may not overlap run()");
  assert(!service_.load(std::memory_order_acquire) &&
         "begin_service called twice");
  service_.store(true, std::memory_order_release);
  engine_.store(&engine, std::memory_order_release);
}

void private_deque_scheduler::end_service() {
  assert(service_.load(std::memory_order_acquire) &&
         "end_service without begin_service");
  // The caller guarantees no further roots will be injected; spin out
  // whatever is still in flight (parked workers re-check on their timeout).
  backoff b;
  while (!service_idle()) b.pause();
  engine_.store(nullptr, std::memory_order_release);
  service_.store(false, std::memory_order_release);
}

bool private_deque_scheduler::service_idle() const {
  return injected_.size.load(std::memory_order_acquire) == 0 &&
         injected_drains_.size.load(std::memory_order_acquire) == 0 &&
         drains_pending_.load(std::memory_order_acquire) == 0 && !any_busy();
}

void private_deque_scheduler::run(dag_engine& engine, vertex* root,
                                  vertex* final_v) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(!service_.load(std::memory_order_acquire) &&
         "run() may not overlap resident-service mode");
  engine_.store(&engine, std::memory_order_release);
  stop_vertex_.store(final_v, std::memory_order_release);
  done_.store(false, std::memory_order_release);
  enqueue(root);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [this] { return done_.load(std::memory_order_acquire); });
  }
  // The final vertex ran, but a worker may still be in a vertex epilogue,
  // and empty-subtree drain tasks (no consumer gated the finish on them)
  // may still sit in private drain queues holding pinned future states.
  // Spin out both so returning from run() implies every vertex is recycled
  // and every drain delivered.
  backoff b;
  while (any_busy() || drains_pending_.load(std::memory_order_acquire) != 0) {
    b.pause();
  }
  stop_vertex_.store(nullptr, std::memory_order_release);
}

scheduler_totals private_deque_scheduler::totals() const {
  scheduler_totals t;
  for (const auto& w : workers_) {
    t.executions += w->value.executions.load(std::memory_order_relaxed);
    t.steals += w->value.steals.load(std::memory_order_relaxed);
    t.failed_steal_sweeps += w->value.failed_steals.load(std::memory_order_relaxed);
    t.parks += w->value.parks.load(std::memory_order_relaxed);
    t.drains_executed += w->value.drains_executed.load(std::memory_order_relaxed);
    t.drains_stolen += w->value.drains_stolen.load(std::memory_order_relaxed);
    t.drains_handed_off +=
        w->value.drains_handed_off.load(std::memory_order_relaxed);
  }
  return t;
}

void private_deque_scheduler::reset_totals() {
  for (auto& w : workers_) {
    w->value.executions.store(0, std::memory_order_relaxed);
    w->value.steals.store(0, std::memory_order_relaxed);
    w->value.failed_steals.store(0, std::memory_order_relaxed);
    w->value.parks.store(0, std::memory_order_relaxed);
    w->value.requests_served.store(0, std::memory_order_relaxed);
    w->value.requests_declined.store(0, std::memory_order_relaxed);
    w->value.drains_executed.store(0, std::memory_order_relaxed);
    w->value.drains_stolen.store(0, std::memory_order_relaxed);
    w->value.drains_handed_off.store(0, std::memory_order_relaxed);
  }
}

}  // namespace spdag
