#pragma once
// Work-stealing scheduler for sp-dags.
//
// One Chase-Lev deque per worker; the owner treats it as a LIFO stack
// (mirrors serial execution order, keeps the working set hot), thieves take
// the oldest (largest) task from a uniformly random victim. The newest
// vertex waits in the worker's slot instead of the deque (scheduler_base).
// An idle worker spins briefly, sweeping with backoff, then sleeps on its
// own futex word until an enqueue wakes it. This is the substrate role
// played in the paper by the authors' PASL work-stealing scheduler [2].

#include <cstddef>
#include <memory>
#include <vector>

#include "sched/chase_lev.hpp"
#include "sched/scheduler_base.hpp"
#include "util/cache_aligned.hpp"
#include "util/rng.hpp"

namespace spdag {

class scheduler final : public scheduler_base {
 public:
  explicit scheduler(scheduler_config cfg = {});
  ~scheduler() override;

 private:
  struct worker {
    explicit worker(std::size_t id)
        : rng(mix64(0x9e3779b97f4a7c15ULL ^ (id + 1))) {}
    chase_lev_deque<vertex> deque;
    xoshiro256 rng;
  };

  void push(std::size_t id, vertex* v) override;
  // The held vertex, own deque, then the injection queue.
  vertex* next_vertex(std::size_t id) override;
  // One steal attempt on `victim`'s deque, counted and traced.
  vertex* steal_from(std::size_t id, std::size_t victim);
  // 2n steal attempts on uniformly random victims.
  vertex* steal(std::size_t id) override;
  // One steal attempt on every other deque, from a random start: unlike
  // the random draws of steal(), it misses no victim.
  vertex* last_look(std::size_t id) override;

  std::vector<std::unique_ptr<padded<worker>>> workers_;
};

}  // namespace spdag
