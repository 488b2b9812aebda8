#include "sched/private_deques.hpp"

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/single_writer.hpp"

namespace spdag {

private_deque_scheduler::private_deque_scheduler(scheduler_config cfg)
    : scheduler_base(cfg) {
  workers_.reserve(worker_count());
  for (std::size_t i = 0; i < worker_count(); ++i) {
    workers_.push_back(std::make_unique<padded<worker>>(i));
  }
  start();
}

private_deque_scheduler::~private_deque_scheduler() { stop(); }

void private_deque_scheduler::push(std::size_t id, vertex* v) {
  workers_[id]->value.tasks.push_back(v);
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
  if (thief < 0) return;  // no_request, or closed by on_park()
  worker& other = workers_[static_cast<std::size_t>(thief)]->value;
  if (can_give && !me.tasks.empty()) {
    // Serve the OLDEST task: it is the root of the largest unexplored
    // subcomputation, the standard steal-one-from-the-top heuristic.
    vertex* v = me.tasks.front();
    me.tasks.pop_front();
    other.transfer.value.store(v, std::memory_order_release);
  } else {
    other.transfer.value.store(declined(), std::memory_order_release);
  }
  me.request.value.store(no_request, std::memory_order_release);
}

vertex* private_deque_scheduler::try_steal(std::size_t id,
                                           std::size_t victim) {
  worker& me = workers_[id]->value;
  me.transfer.value.store(waiting(), std::memory_order_release);
  int expect = no_request;
  if (!workers_[victim]->value.request.value.compare_exchange_strong(
          expect, static_cast<int>(id), std::memory_order_acq_rel)) {
    return nullptr;  // another thief beat us to this victim, or it sleeps
  }
  // Spin for the answer; keep declining our own incoming requests so two
  // thieves waiting on each other cannot deadlock.
  backoff b;
  for (;;) {
    vertex* v = me.transfer.value.load(std::memory_order_acquire);
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
  // Poll for steal requests between executions; an idle worker declines.
  // This worker keeps the vertex it runs next: the held one if any, else
  // its newest task.
  vertex* v = take_held(id);
  communicate(id, /*can_give=*/me.tasks.size() + (v != nullptr ? 1 : 0) > 1);
  if (v != nullptr) return v;
  if (me.tasks.empty()) return pop_injected();
  v = me.tasks.back();
  me.tasks.pop_back();
  return v;
}

vertex* private_deque_scheduler::steal(std::size_t id) {
  worker& me = workers_[id]->value;
  const std::size_t n = workers_.size();
  for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
    const std::size_t victim = static_cast<std::size_t>(me.rng.below(n));
    if (victim == id) continue;
    obs::emit(obs::ev_steal_attempt, static_cast<std::uint16_t>(victim));
    if (vertex* v = try_steal(id, victim)) {
      bump(stats(id).steals);
      obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
      return v;
    }
    bump(stats(id).failed_steal_sweeps);
    communicate(id, /*can_give=*/false);
    if (stopping()) return nullptr;
  }
  return nullptr;
}

void private_deque_scheduler::on_park(std::size_t id) {
  // Close the cell; a request already in it is declined first (this worker
  // has nothing to give), so no thief waits on a sleeper.
  std::atomic<int>& request = workers_[id]->value.request.value;
  int expect = no_request;
  while (!request.compare_exchange_strong(expect, closed,
                                          std::memory_order_acq_rel)) {
    communicate(id, /*can_give=*/false);
    expect = no_request;
  }
}

void private_deque_scheduler::on_wake(std::size_t id) {
  workers_[id]->value.request.value.store(no_request,
                                          std::memory_order_release);
}

}  // namespace spdag
