#pragma once
// Work stealing with private deques and explicit steal requests.
//
// This is the receiver-initiated algorithm of Acar, Charguéraud & Rainey,
// "Scheduling Parallel Programs by Work Stealing with Private Deques"
// (PPoPP'13) — reference [2] of the reproduced paper and the scheduler its
// evaluation actually ran on. Unlike Chase-Lev, each worker's deque is a
// plain (unsynchronized) container; thieves never touch it. Instead:
//
//   * every worker owns a `request` cell thieves CAS their id into, and a
//     `transfer` cell where victims deliver;
//   * a busy worker polls its request cell between vertex executions and
//     answers with its OLDEST task, or declines when it has nothing to
//     spare: it spares a task only when its deque and its slot (the vertex
//     it enqueued last, which it runs next; scheduler_base) hold two or
//     more between them;
//   * an idle thief publishes a request to a random victim and spins on its
//     own transfer cell — declining any incoming request while it spins,
//     which is what makes thief-thief encounters deadlock-free;
//   * a worker about to sleep closes its request cell, declining a request
//     already there, and reopens it on waking: a thief's CAS then fails at
//     once instead of waiting for an answer from a sleeper. Its re-check
//     after registering as a sleeper is local only (no last_look()): a
//     request to a busy victim waits for that victim's next poll.
//
// The trade: task execution pays zero synchronization on the deque, at the
// cost of steal latency bounded by the victim's polling interval.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sched/scheduler_base.hpp"
#include "util/cache_aligned.hpp"
#include "util/rng.hpp"

namespace spdag {

class private_deque_scheduler final : public scheduler_base {
 public:
  explicit private_deque_scheduler(scheduler_config cfg = {});
  ~private_deque_scheduler() override;

 private:
  static constexpr int no_request = -1;
  static constexpr int closed = -2;  // the owner sleeps (on_park)
  // Transfer-cell sentinels (never valid vertex addresses).
  static vertex* waiting() { return reinterpret_cast<vertex*>(std::uintptr_t{1}); }
  static vertex* declined() { return reinterpret_cast<vertex*>(std::uintptr_t{2}); }

  struct worker {
    explicit worker(std::size_t id)
        : rng(mix64(0xa076'1d64'78bd'642fULL ^ (id + 1))) {}
    std::deque<vertex*> tasks;  // private: owner-only
    xoshiro256 rng;             // owner-only
    cache_aligned<std::atomic<int>> request{no_request};
    cache_aligned<std::atomic<vertex*>> transfer{nullptr};
  };

  // Owner-only push; no synchronization by design.
  void push(std::size_t id, vertex* v) override;
  // Polls for a steal request, then takes the held vertex, else pops the
  // newest own task (LIFO for locality; thieves get the oldest through
  // communicate()), else an injected vertex.
  vertex* next_vertex(std::size_t id) override;
  // 2n steal requests to uniformly random victims.
  vertex* steal(std::size_t id) override;
  // Close and reopen the request cell around a sleep.
  void on_park(std::size_t id) override;
  void on_wake(std::size_t id) override;
  // Answers a pending steal request; `can_give` = serve the oldest task,
  // otherwise decline.
  void communicate(std::size_t id, bool can_give);
  // Requests a vertex from `victim`; null when declined, beaten to it, or
  // the victim's cell is closed.
  vertex* try_steal(std::size_t id, std::size_t victim);

  std::vector<std::unique_ptr<padded<worker>>> workers_;
};

}  // namespace spdag
