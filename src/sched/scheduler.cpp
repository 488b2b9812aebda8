#include "sched/scheduler.hpp"

#include "obs/trace.hpp"
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

void scheduler::push(std::size_t id, vertex* v) {
  workers_[id]->value.deque.push_bottom(v);
}

vertex* scheduler::next_vertex(std::size_t id) {
  if (vertex* v = take_held(id)) return v;
  if (vertex* v = workers_[id]->value.deque.pop_bottom()) return v;
  return pop_injected();
}

vertex* scheduler::steal_from(std::size_t id, std::size_t victim) {
  obs::emit(obs::ev_steal_attempt, static_cast<std::uint16_t>(victim));
  vertex* v = workers_[victim]->value.deque.steal_top();
  if (v != nullptr) {
    bump(stats(id).steals);
    obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
  }
  return v;
}

vertex* scheduler::steal(std::size_t id) {
  worker& me = workers_[id]->value;
  const std::size_t n = workers_.size();
  for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
    const std::size_t victim = static_cast<std::size_t>(me.rng.below(n));
    if (victim == id) continue;
    if (vertex* v = steal_from(id, victim)) return v;
  }
  bump(stats(id).failed_steal_sweeps);
  return nullptr;
}

vertex* scheduler::last_look(std::size_t id) {
  worker& me = workers_[id]->value;
  const std::size_t n = workers_.size();
  const std::size_t start = static_cast<std::size_t>(me.rng.below(n));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == id) continue;
    if (vertex* v = steal_from(id, victim)) return v;
  }
  return nullptr;
}

}  // namespace spdag
