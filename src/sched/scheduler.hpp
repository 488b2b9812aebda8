#pragma once
// Work-stealing scheduler for sp-dags.
//
// One Chase-Lev deque per worker; the owner treats it as a LIFO stack
// (mirrors serial execution order, keeps the working set hot), thieves take
// the oldest (largest) task from a uniformly random victim. Idle workers
// back off and then park on a condition variable with a short timeout, which
// matters doubly on oversubscribed hosts where spinning steals the mutator's
// cycles. This is the substrate role played in the paper by the authors'
// PASL work-stealing scheduler [2].

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

  // executor: called by the dag engine when a vertex becomes ready, and by
  // external threads to inject roots. Worker threads push to their own
  // deque; everyone else goes through the injection queue.
  void enqueue(vertex* v) override;

 private:
  struct worker {
    explicit worker(std::size_t id)
        : rng(mix64(0x9e3779b97f4a7c15ULL ^ (id + 1))) {}
    chase_lev_deque<vertex> deque;
    xoshiro256 rng;
  };

  // Own deque, then the injection queue, then steal sweeps over random
  // victims; null after steal_sweeps_before_park failed sweeps.
  vertex* next_vertex(std::size_t id) override;
  // Ticks the epoch; finds no work (next_vertex already swept every deque).
  bool idle_work(std::size_t id) override;

  // Failed steal sweeps before a worker parks.
  static constexpr std::size_t steal_sweeps_before_park = 4;

  std::vector<std::unique_ptr<padded<worker>>> workers_;
};

}  // namespace spdag
