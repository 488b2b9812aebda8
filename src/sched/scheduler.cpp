#include "sched/scheduler.hpp"

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/single_writer.hpp"

namespace spdag {

scheduler::scheduler(scheduler_config cfg) : scheduler_base(cfg) {
  workers_.reserve(worker_count());
  for (std::size_t i = 0; i < worker_count(); ++i) {
    workers_.push_back(std::make_unique<padded<worker>>(i));
  }
  start();
}

scheduler::~scheduler() { stop(); }

void scheduler::enqueue(vertex* v) {
  if (const int id = my_worker_id(); id >= 0) {
    workers_[static_cast<std::size_t>(id)]->value.deque.push_bottom(v);
  } else {
    inject(v);
  }
  obs::gauge_add(obs::g_runnable, 1);
  unpark_some();
}

vertex* scheduler::next_vertex(std::size_t id) {
  worker& me = workers_[id]->value;
  if (vertex* v = me.deque.pop_bottom()) return v;
  if (vertex* v = pop_injected()) return v;
  // Steal sweeps: random victims, a few rounds, then report failure so the
  // caller can park.
  obs::span_guard steal_span(obs::sp_steal);
  const std::size_t n = workers_.size();
  for (std::size_t sweep = 0; sweep < steal_sweeps_before_park; ++sweep) {
    for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
      const std::size_t victim = static_cast<std::size_t>(me.rng.below(n));
      if (victim == id) continue;
      obs::emit(obs::ev_steal_attempt, static_cast<std::uint16_t>(victim));
      if (vertex* v = workers_[victim]->value.deque.steal_top()) {
        bump(stats(id).steals);
        obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
        return v;
      }
    }
    if (vertex* v = pop_injected()) return v;
    cpu_relax();
  }
  bump(stats(id).failed_steal_sweeps);
  return nullptr;
}

bool scheduler::idle_work(std::size_t) {
  // No vertex anywhere: a steal-failure transition is a natural epoch
  // communication point — no stale pointers are held, so tick the advance
  // machinery before the worker parks.
  mem::epoch::tick();
  return false;
}

}  // namespace spdag
