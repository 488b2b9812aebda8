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
//     answers with its OLDEST task (or a decline when it has nothing to
//     spare);
//   * an idle thief publishes a request to a random victim and spins on its
//     own transfer cell — declining any incoming request while it spins,
//     which is what makes thief-thief encounters deadlock-free.
//
// The trade: task execution pays zero synchronization on the deque, at the
// cost of steal latency bounded by the victim's polling interval.
//
// Out-set drain tasks (parallel finalize, see outset.hpp) ride the same
// request/response protocol, receiver-initiated like everything else here:
// each worker owns a PRIVATE drain queue, and a polled steal request that
// finds no vertex to spare is answered with the oldest queued drain instead
// of a decline. A busy worker therefore keeps the dag's critical path and
// sheds broadcast bookkeeping to whoever asked for work; a worker that goes
// idle with drains still queued runs them itself before thieving. Single-
// worker runs, external (non-worker) enqueuers with nobody to hand to, and
// a saturated queue all fall back to the executor's inline flattening
// trampoline, so the serial path is untouched.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/scheduler_base.hpp"
#include "util/cache_aligned.hpp"
#include "util/rng.hpp"

namespace spdag {

struct private_deque_config {
  std::size_t workers = 0;  // 0 = hardware_core_count()
  bool pin_threads = false;
};

class private_deque_scheduler final : public scheduler_base {
 public:
  explicit private_deque_scheduler(private_deque_config cfg = {});
  ~private_deque_scheduler() override;

  private_deque_scheduler(const private_deque_scheduler&) = delete;
  private_deque_scheduler& operator=(const private_deque_scheduler&) = delete;

  void enqueue(vertex* v) override;

  // Receiver-initiated drain hand-off (see file comment): worker callers
  // queue the task privately for communicate() to answer steal requests
  // with; external callers inject it for an idle worker to adopt. Falls
  // back to the inline flattening trampoline with one worker or a full
  // queue. run() counts outstanding drains toward quiescence.
  void enqueue_drain(outset_drain_task* t) override;

  void run(dag_engine& engine, vertex* root, vertex* final_v) override;

  // Resident-service mode (see scheduler_base): attach the engine so
  // externally injected roots execute without a surrounding run(); detach
  // after spinning out to idleness.
  void begin_service(dag_engine& engine) override;
  void end_service() override;
  bool service_idle() const override;

  std::size_t worker_count() const override { return workers_.size(); }
  scheduler_totals totals() const override;
  void reset_totals() override;

 private:
  static constexpr int no_request = -1;
  // Transfer-cell sentinels (never valid vertex addresses). drain_given()
  // means "no vertex, but your drain_transfer cell holds a drain task".
  static vertex* waiting() { return reinterpret_cast<vertex*>(std::uintptr_t{1}); }
  static vertex* declined() { return reinterpret_cast<vertex*>(std::uintptr_t{2}); }
  static vertex* drain_given() { return reinterpret_cast<vertex*>(std::uintptr_t{3}); }

  // Stat counters are relaxed atomics: worker-local (uncontended) on the
  // hot path, but totals()/reset_totals() may run while idle workers are
  // still bumping their park counts.
  struct worker {
    std::deque<vertex*> tasks;                // private: owner-only
    std::deque<outset_drain_task*> drains;    // private: owner-only
    cache_aligned<std::atomic<int>> request{no_request};
    cache_aligned<std::atomic<vertex*>> transfer{nullptr};
    // Companion to the transfer cell: the victim parks the handed-off drain
    // here before publishing drain_given() in `transfer`.
    cache_aligned<std::atomic<outset_drain_task*>> drain_transfer{nullptr};
    // True while this worker runs execute(); the owner is the only writer.
    // run()'s epilogue and service_idle() scan every flag (see worker_main).
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steals{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> requests_served{0};
    std::atomic<std::uint64_t> requests_declined{0};
    std::atomic<std::uint64_t> drains_executed{0};
    std::atomic<std::uint64_t> drains_stolen{0};
    std::atomic<std::uint64_t> drains_handed_off{0};
  };

  // Mutexed FIFO with a lock-free emptiness probe, used for work injected
  // by non-worker threads (vertices and drain tasks alike).
  template <typename T>
  struct injection_queue {
    std::mutex mu;
    std::deque<T*> items;
    std::atomic<std::size_t> size{0};

    void push(T* item) {
      std::lock_guard<std::mutex> lock(mu);
      items.push_back(item);
      size.fetch_add(1, std::memory_order_release);
    }
    T* pop() {
      if (size.load(std::memory_order_acquire) == 0) return nullptr;
      std::lock_guard<std::mutex> lock(mu);
      if (items.empty()) return nullptr;
      T* item = items.front();
      items.pop_front();
      size.fetch_sub(1, std::memory_order_release);
      return item;
    }
  };

  void worker_main(std::size_t id);
  // Answers a pending steal request; `can_give` = serve the oldest task.
  // With no vertex to spare it serves the oldest queued drain instead
  // (broadcast bookkeeping never outranks the dag's critical path, but it
  // beats declining an idle core), and only then declines.
  void communicate(std::size_t id, bool can_give);
  // On success returns a vertex. Returning null with *drain_out set means
  // the victim answered with a drain hand-off instead of a vertex.
  vertex* try_steal(std::size_t id, std::size_t victim,
                    outset_drain_task** drain_out);
  // Runs one drain task on worker `id` and settles the pending count;
  // `migrated` = it was enqueued by a different worker (or externally).
  void run_drain(std::size_t id, outset_drain_task* t, bool migrated);
  void unpark_some();
  // True while some worker is inside execute().
  bool any_busy() const;

  // Failed steal attempts before a worker parks.
  static constexpr std::size_t steal_attempts_before_park = 16;
  // Park timeout; bounds the cost of a lost wakeup.
  static constexpr std::chrono::microseconds park_timeout{500};
  // Out-set drain tasks a worker queues privately before enqueue_drain
  // falls back to running the task inline (bounds the backlog a single
  // broadcast can park on one worker).
  static constexpr std::size_t drain_queue_cap = 256;

  private_deque_config cfg_;
  std::vector<std::unique_ptr<padded<worker>>> workers_;
  std::vector<std::thread> threads_;

  injection_queue<vertex> injected_;
  // Drains enqueued by non-worker threads; idle workers adopt and run them.
  injection_queue<outset_drain_task> injected_drains_;
  // Enqueued but not yet finished draining (decremented after run(), so a
  // zero means every queued subtree is fully delivered — run() waits on it).
  std::atomic<int> drains_pending_{0};

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<int> parked_{0};

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> service_{false};
  std::atomic<dag_engine*> engine_{nullptr};
  std::atomic<vertex*> stop_vertex_{nullptr};

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<bool> done_{true};
};

}  // namespace spdag
