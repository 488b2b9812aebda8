#pragma once
// The scheduler core shared by both sp-dag schedulers.
//
// Two implementations are provided:
//   * scheduler               — concurrent Chase-Lev deques (classic work
//                               stealing, Blumofe-Leiserson / Arora et al.)
//   * private_deque_scheduler — private deques with explicit steal requests
//                               (Acar, Charguéraud & Rainey, PPoPP'13 — the
//                               scheduler the paper's own evaluation used)
// Both are executors (the dag engine pushes ready vertices through
// enqueue) plus a blocking run-to-completion entry point.
//
// scheduler_base owns everything except how work is found: the worker
// threads and their epoch-pinned loop, the busy-flag execute bracket, the
// idle path, enqueue(), the injection queue for non-worker threads, run()
// and service mode, and the per-worker counters behind totals(). A
// scheduler supplies its queues and three hooks: push() puts a vertex on
// the calling worker's own queue, next_vertex() takes local work (the held
// vertex, its own queue, then the injection queue) and steal() makes one
// sweep over the other workers. Three more serve a worker's sleep:
// last_look() is its final non-blocking look at the other workers, and
// on_park()/on_wake() bracket the sleep.
//
// Each worker holds the vertex it enqueued last in an owner-only slot
// (row::held) and pushes only the vertex that slot displaces. The owner
// takes the slot first, so execution order is the queue's LIFO order, but
// the vertex it runs next skips the queue round trip and wakes nobody: the
// work-first rule of Cilk-5 (Frigo, Leiserson & Randall, PLDI 1998). No
// thief can take a held vertex, and only the newest vertex is held.
//
// An idle worker spins for spin_bound (util/spin_wait.hpp), re-sweeping
// with exponential backoff between sweeps, then registers as a sleeper on
// its own futex word, re-checks without blocking, and blocks with no
// timeout; enqueue wakes one registered sleeper. Why no wake-up is lost is
// argued once, in scheduler_base.cpp above park().
//
// Vertices are the only work: an out-set subtree drain arrives as a vertex
// like any other (dag_engine::enqueue_drain), and run() and service_idle()
// read the engine's pending-drain count because no finish waits on one.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "util/cache_aligned.hpp"

namespace spdag {

struct scheduler_totals {
  std::uint64_t executions = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steal_sweeps = 0;
  std::uint64_t parks = 0;
};

struct scheduler_config {
  std::size_t workers = 0;  // 0 = hardware_core_count()
  bool pin_threads = false;
};

class scheduler_base : public executor {
 public:
  ~scheduler_base() override;

  scheduler_base(const scheduler_base&) = delete;
  scheduler_base& operator=(const scheduler_base&) = delete;

  // Executes the dag rooted at `root` until `final_v` has run and every
  // vertex has been recycled (quiescence). Blocking; call from a non-worker
  // thread. The engine must use this scheduler as its executor.
  void run(dag_engine& engine, vertex* root, vertex* final_v);

  // --- resident-service mode (src/service/) --------------------------------
  //
  // A dag_service keeps the worker pool alive across many externally
  // submitted dags instead of wrapping each one in run(). begin_service
  // attaches the engine so roots injected by non-worker threads (through
  // enqueue) execute as they arrive; each submitted dag carries its own
  // completion (a body on its final vertex), so there is no stop vertex and
  // nothing blocks. end_service spins the scheduler out to idleness and
  // detaches — the caller must guarantee no further roots are injected.
  // Service mode and run() may not overlap.
  void begin_service(dag_engine& engine);
  void end_service();

  // True when this scheduler holds no queued or running work: injection
  // queue empty, no drain pending in the attached engine, no worker
  // mid-execute. NOT a full quiescence proof by itself — vertices can sit
  // in worker-private deques and slots between executes — so
  // resident-service callers pair it with engine.live_vertices() == 0. A
  // held vertex is live, so that count covers it exactly as it covers a
  // deque's contents, and drains_pending() covers a held drain.
  bool service_idle() const;

  // executor: a worker holds v and pushes the vertex it displaces onto
  // its own queue; any other thread injects v. Wakes one sleeper unless
  // the caller's own worker runs v next.
  void enqueue(vertex* v) final;

  std::size_t worker_count() const noexcept { return rows_.size(); }
  // The per-worker counters summed, minus the reset_totals() baseline.
  scheduler_totals totals() const;
  // Makes totals() read zero from here on by recording the current sums as
  // a baseline; it never writes a worker's row, so it loses no increment.
  void reset_totals();

  // Index of the calling worker thread, or -1 for external threads.
  static int current_worker_id() noexcept;

 protected:
  explicit scheduler_base(scheduler_config cfg);

  // Thread lifecycle: a derived constructor calls start() last, once its
  // own per-worker state exists; a derived destructor calls stop() first.
  void start();
  void stop();

  // Owner-only push of a vertex that enqueue() displaced from worker
  // `id`'s slot onto its own queue.
  virtual void push(std::size_t id, vertex* v) = 0;
  // Local work for worker `id`: its held vertex, its own queue, then the
  // injection queue; null when all are empty. Cheap: the idle spin calls
  // it on every poll.
  virtual vertex* next_vertex(std::size_t id) = 0;
  // One sweep over the other workers; the stolen vertex, or null.
  virtual vertex* steal(std::size_t id) = 0;
  // The re-check of a registered sleeper (park()) after next_vertex(): it
  // must not wait on another worker, since a waker may already count on
  // this one. Looks nowhere by default.
  virtual vertex* last_look(std::size_t) { return nullptr; }
  // Bracket a worker's sleep (park()): on_park() runs before the worker
  // registers as a sleeper, on_wake() after it has woken or cancelled.
  virtual void on_park(std::size_t) {}
  virtual void on_wake(std::size_t) {}

  // Per-worker counters. The owning worker is the only writer, with bump()
  // (util/single_writer.hpp); they stay atomics so totals() can read them
  // while workers run.
  struct counters {
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steal_sweeps{0};
    std::atomic<std::uint64_t> parks{0};
  };
  counters& stats(std::size_t id) noexcept { return rows_[id]->value.stats; }

  // The calling thread's index if it is one of THIS scheduler's workers,
  // else -1.
  int my_worker_id() const noexcept;
  bool stopping() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  // Worker `id`'s held vertex, taken (null when the slot is empty).
  // Owner-only.
  vertex* take_held(std::size_t id) noexcept {
    vertex*& held = rows_[id]->value.held;
    vertex* v = held;
    if (v != nullptr) held = nullptr;
    return v;
  }

  // Injection queue for vertices enqueued by non-worker threads.
  void inject(vertex* v);
  vertex* pop_injected();

  // Wakes one registered sleeper, if any. Every enqueue calls it.
  void unpark_some();

 private:
  // Mutexed FIFO with a lock-free emptiness probe.
  struct fifo {
    std::mutex mu;
    std::deque<vertex*> items;
    std::atomic<std::size_t> size{0};

    void push(vertex* v);
    vertex* pop();  // null when empty
  };
  // Test seam: tests/park_wake_stress_test.cpp holds the fifo's lock to pin
  // pop()'s retry.
  friend struct injection_fifo_seam;
  struct row {
    // True while this worker runs execute(); the owner is the only writer.
    // run()'s epilogue and service_idle() scan every flag (see execute()).
    std::atomic<bool> busy{false};
    // The futex word this worker sleeps on: 1 from its registration as a
    // sleeper until a waker (or the worker itself, cancelling) stores 0.
    std::atomic<std::uint32_t> asleep{0};
    // The vertex this worker enqueued last, or null; owner-only. Filled
    // only inside execute(), and taken by the next next_vertex(), so it is
    // empty whenever the worker looks elsewhere for work.
    vertex* held = nullptr;
    counters stats;
  };

  void worker_main(std::size_t id);
  void execute(std::size_t id, vertex* v);
  // Spins for spin_bound, then parks; returns a vertex found meanwhile, or
  // null (woken, or stopping) for the loop to look again.
  vertex* idle(std::size_t id);
  // Registers as a sleeper, re-checks, and blocks until woken; returns a
  // vertex the re-check found, or null.
  vertex* park(std::size_t id);
  // True while some worker is inside execute().
  bool any_busy() const;
  scheduler_totals sum_rows() const;

  const bool pin_threads_;
  std::vector<std::unique_ptr<padded<row>>> rows_;
  std::vector<std::thread> threads_;

  counters baseline_;  // reset_totals(): subtracted by totals()

  fifo injected_;

  // Registered sleepers; unpark_some() scans the rows only when it is
  // non-zero.
  std::atomic<std::uint32_t> sleepers_{0};

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> service_{false};
  std::atomic<dag_engine*> engine_{nullptr};
  std::atomic<vertex*> stop_vertex_{nullptr};

  // run()'s caller waits on it (util/spin_wait.hpp); 1 once the final
  // vertex has run, or outside run().
  std::atomic<std::uint32_t> done_{1};
};

}  // namespace spdag
