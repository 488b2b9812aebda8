#include "sched/private_deques.hpp"

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"

namespace spdag {

private_deque_scheduler::private_deque_scheduler(scheduler_config cfg)
    : scheduler_base(cfg) {
  workers_.reserve(worker_count());
  for (std::size_t i = 0; i < worker_count(); ++i) {
    workers_.push_back(std::make_unique<padded<worker>>(i));
  }
  start();
}

private_deque_scheduler::~private_deque_scheduler() {
  stop();
  // stop() joined the workers, so this thread owns every private queue.
  // Structured teardown leaves nothing here (run() holds out for drain
  // quiescence); direct executor use can. Run what is left, and any
  // hand-off abandoned mid-transfer, exactly once: re-offloads land in the
  // shared lane (this thread is not a worker), which run_lane_dry() empties.
  for (auto& w : workers_) {
    worker& me = w->value;
    if (outset_drain_task* t = me.drain_transfer.value.exchange(
            nullptr, std::memory_order_acquire)) {
      run_leftover(t);
    }
    for (; !me.drains.empty(); me.drains.pop_front()) {
      run_leftover(me.drains.front());
    }
  }
  run_lane_dry();
}

void private_deque_scheduler::enqueue(vertex* v) {
  if (const int id = my_worker_id(); id >= 0) {
    // Owner-only push; no synchronization by design.
    workers_[static_cast<std::size_t>(id)]->value.tasks.push_back(v);
  } else {
    inject(v);
  }
  obs::gauge_add(obs::g_runnable, 1);
  unpark_some();
}

void private_deque_scheduler::enqueue_drain(outset_drain_task* t) {
  if (worker_count() > 1) {
    const int id = my_worker_id();
    if (id < 0) {
      // External thread: nothing private to queue on; the shared lane is
      // the dual of the vertex injection queue.
      push_lane(t);
      return;
    }
    // Worker path: queue privately. communicate() answers steal requests
    // from it, and idle_work() runs what nobody asked for.
    worker& me = workers_[static_cast<std::size_t>(id)]->value;
    if (me.drains.size() < drain_queue_cap) {
      count_drain();
      me.drains.push_back(t);
      unpark_some();
      return;
    }
    // Saturated: fall through to the inline trampoline rather than grow
    // an unbounded private backlog thieves may never ask for.
  }
  // Single worker (no thief to hand to) or saturated queue: run inline
  // through the flattening trampoline, same as the serial executor.
  executor::enqueue_drain(t);
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
  } else if (!me.drains.empty()) {
    // No vertex to spare, but broadcast bookkeeping is queued: hand the
    // OLDEST drain (nearest the out-set root, the widest subtree) to the
    // thief. The drain_transfer store must precede the drain_given()
    // publication — the thief's acquire on `transfer` is what orders it.
    outset_drain_task* t = me.drains.front();
    me.drains.pop_front();
    other.drain_transfer.value.store(t, std::memory_order_release);
    other.transfer.value.store(drain_given(), std::memory_order_release);
    stats(id).drains_handed_off.fetch_add(1, std::memory_order_relaxed);
    obs::emit(obs::ev_drain_handoff, static_cast<std::uint16_t>(thief));
  } else {
    other.transfer.value.store(declined(), std::memory_order_release);
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
    if (stopping()) return nullptr;
    b.pause();
  }
}

vertex* private_deque_scheduler::next_vertex(std::size_t id) {
  worker& me = workers_[id]->value;
  // Poll for steal requests between executions; an idle worker declines
  // (or hands off a queued drain).
  communicate(id, /*can_give=*/me.tasks.size() > 1);
  if (me.tasks.empty()) return pop_injected();
  vertex* v = me.tasks.back();
  me.tasks.pop_back();
  return v;
}

bool private_deque_scheduler::idle_work(std::size_t id) {
  worker& me = workers_[id]->value;
  if (!me.drains.empty()) {
    outset_drain_task* t = me.drains.front();
    me.drains.pop_front();
    run_drain(id, t, /*migrated=*/false);
    return true;
  }
  // Lane drains come from external threads. This scheduler's transfer
  // mechanism is communicate(), so adopting one is not a hand-off.
  if (run_lane_drain(id, /*lane_hands_off=*/false)) return true;
  for (std::size_t attempt = 0; attempt < steal_attempts_before_park;
       ++attempt) {
    const std::size_t victim =
        static_cast<std::size_t>(me.rng.below(workers_.size()));
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
      stats(id).steals.fetch_add(1, std::memory_order_relaxed);
      obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
      return true;
    }
    if (drain != nullptr) {
      // The victim had no vertex to spare and answered with broadcast
      // work instead: the receiver-initiated drain hand-off.
      run_drain(id, drain, /*migrated=*/true);
      return true;
    }
    stats(id).failed_steal_sweeps.fetch_add(1, std::memory_order_relaxed);
    communicate(id, /*can_give=*/false);
    if (stopping()) return false;
  }
  return false;
}

}  // namespace spdag
