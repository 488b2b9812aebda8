#pragma once
// Out-set: the fan-out dual of the in-counter.
//
// The in-counter (paper sections 3-5) removes the contention hotspot on the
// fan-*in* side of dependency tracking: many signalers decrementing one
// finish counter. Futures introduce the symmetric hotspot on the fan-*out*
// side: many consumers registering against one producer. An out-set is the
// structure that absorbs those registrations — a set of waiting consumers
// with three operations:
//
//   add(w)       called by a registering consumer. Returns true if the
//                out-set captured w (finalize will deliver it), false if the
//                out-set was already finalized (the caller must deliver the
//                consumer itself). Linearizable and lock-free.
//   finalize(f)  called exactly once by the completing producer. Invokes f
//                on every captured waiter exactly once, streaming them out
//                as the traversal proceeds, and flips the out-set into the
//                terminated state in which every later add returns false.
//                The parallel overload additionally hands subtree-drain
//                tasks (outset_drain_task) to a caller-supplied spawner so
//                the walk itself runs on many workers; see below.
//   reset(f)     non-concurrent reinitialization, which the factory runs
//                before it destroys a released out-set; any never-delivered
//                waiters are handed to f for reclamation (an abandoned
//                future's registrations).
//
// The add/finalize race is resolved *per node* with a terminated sentinel
// installed in each list head (and, for the tree implementation, in each
// children pointer), never with a per-future flag — that is what lets
// concurrent adds against a finalizing out-set land on disjoint cache lines
// instead of all re-checking one shared word.
//
// The out-set never dereferences the consumer/engine pointers it carries;
// delivery policy (schedule the vertex on its engine) lives with the caller,
// which keeps this layer independent of the dag and directly unit-testable.

#include <atomic>
#include <cstdint>

namespace spdag {

class vertex;      // not dereferenced here; see src/dag/vertex.hpp
class dag_engine;  // not dereferenced here; see src/dag/engine.hpp

// One registered consumer. One slab-pool cell per registration, drawn and
// returned through the outset_factory; the out-set links captured waiters
// through `next`.
struct outset_waiter {
  vertex* consumer = nullptr;
  dag_engine* engine = nullptr;
  std::atomic<outset_waiter*> next{nullptr};  // intrusive capture list
};

// One stolen unit of finalize work: a subtree whose waiters are still to be
// drained. Out-set implementations that can partition their finalize walk
// (the tree) package subtrees as drain tasks and hand them to the caller's
// spawner instead of walking them on the completing thread, so idle workers
// broadcast in parallel. Under a runtime the spawner wraps each task in a
// vertex (dag_engine::enqueue_drain), which any scheduler moves the way it
// moves every vertex. Ownership passes with the task: whoever receives it
// calls run() exactly once; run() drains the subtree to the sink bound at
// finalize time, hands still-deeper subtrees to the same spawner, invokes
// the on_done hook, and releases the task's own pool cell.
class outset_drain_task {
 public:
  virtual void run() = 0;

  // Completion hook for the enqueuer (future_state pins itself across the
  // asynchronous drain and unpins here). The spawner sets both fields before
  // queueing the task; run() calls the hook after the subtree is fully
  // drained and the task storage is already released.
  void (*on_done)(void*) = nullptr;
  void* on_done_ctx = nullptr;

 protected:
  ~outset_drain_task() = default;  // tasks release themselves inside run()
};

// Aggregate view of one out-set's relaxed instrumentation counters.
struct outset_totals {
  std::uint64_t adds = 0;             // successful captures (per waiter)
  std::uint64_t add_cas_retries = 0;  // failed head CASes across all adds
  std::uint64_t rejected_adds = 0;    // adds that lost to finalize
  std::uint64_t delivered = 0;        // waiters handed to a finalize sink
  // Subtree-drain tasks handed to a finalize spawner (0 when finalize ran
  // serially or the structure never grew).
  std::uint64_t subtrees_offloaded = 0;
  // Grouped registrations that captured their whole chain with one CAS
  // (add_group on a structured implementation); each also counts its n
  // waiters under `adds`.
  std::uint64_t group_adds = 0;

  outset_totals& operator+=(const outset_totals& o) noexcept {
    adds += o.adds;
    add_cas_retries += o.add_cas_retries;
    rejected_adds += o.rejected_adds;
    delivered += o.delivered;
    subtrees_offloaded += o.subtrees_offloaded;
    group_adds += o.group_adds;
    return *this;
  }
};

class outset {
 public:
  // What finalize/reset do with each captured waiter (plain function pointer
  // + context so implementations stay non-template; future_state passes its
  // factory as ctx and schedules + reclaims, tests just count).
  using waiter_sink = void (*)(void* ctx, outset_waiter* w);

  // Receives ownership of one subtree-drain task during a parallel finalize
  // (typically enqueues it on an executor). The task must eventually be
  // run() exactly once, on any thread.
  using drain_spawner = void (*)(void* ctx, outset_drain_task* t);

  virtual ~outset() = default;

  // See file comment. Thread-safe against concurrent add and one finalize.
  virtual bool add(outset_waiter* w) noexcept = 0;

  // Grouped registration: captures a pre-linked chain of n waiters
  // (head -> ... -> tail via `next`, in that order) and returns how many it
  // captured — always a PREFIX of the chain in order, so the caller delivers
  // waiters [captured, n) itself. Same thread-safety as add. The base
  // default degrades to n singles (stopping at the first rejection);
  // structured implementations override with one-CAS all-or-nothing capture
  // (returning n or 0) — the fan-out dual of incounter::add's one batched
  // arrive for k edges.
  virtual std::uint32_t add_group(outset_waiter* head, outset_waiter* tail,
                                  std::uint32_t n) noexcept {
    (void)tail;
    std::uint32_t captured = 0;
    outset_waiter* w = head;
    while (captured < n && w != nullptr) {
      // Save the chain link BEFORE re-adding: add() rewrites w->next.
      outset_waiter* next = w->next.load(std::memory_order_relaxed);
      if (!add(w)) break;
      ++captured;
      w = next;
    }
    return captured;
  }

  // See file comment. Must be called at most once per reset-generation, by
  // one thread; concurrent adds are safe.
  virtual void finalize(waiter_sink sink, void* ctx) = 0;

  // Parallel finalize: like finalize(sink, ctx), but implementations that
  // can partition the walk hand subtree-drain tasks to `spawn` instead of
  // draining everything on the calling thread. Delivery is complete only
  // once every spawned task has run; the caller must keep the out-set, the
  // sink ctx, and the spawner ctx alive until then (each task's on_done hook
  // is the per-task signal). The default ignores the spawner and drains
  // serially — only structured implementations override.
  virtual void finalize(waiter_sink sink, void* sctx, drain_spawner spawn,
                        void* spawn_ctx) {
    (void)spawn;
    (void)spawn_ctx;
    finalize(sink, sctx);
  }

  // See file comment. Non-concurrent.
  virtual void reset(waiter_sink sink, void* ctx) = 0;

  outset_totals totals() const noexcept {
    outset_totals t;
    t.adds = adds_.load(std::memory_order_relaxed);
    t.add_cas_retries = add_cas_retries_.load(std::memory_order_relaxed);
    t.rejected_adds = rejected_adds_.load(std::memory_order_relaxed);
    t.delivered = delivered_.load(std::memory_order_relaxed);
    t.subtrees_offloaded = subtrees_offloaded_.load(std::memory_order_relaxed);
    t.group_adds = group_adds_.load(std::memory_order_relaxed);
    return t;
  }

 protected:
  // Distinguished list-head value marking a node as finalized. Never
  // dereferenced; compared by address only.
  static outset_waiter* terminated_waiter() noexcept {
    return reinterpret_cast<outset_waiter*>(std::uintptr_t{1});
  }

  void count_add(std::uint32_t n = 1) noexcept {
    adds_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_retry() noexcept {
    add_cas_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_rejected(std::uint32_t n = 1) noexcept {
    rejected_adds_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_group_add() noexcept {
    group_adds_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_delivered() noexcept {
    delivered_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_offloaded() noexcept {
    subtrees_offloaded_.fetch_add(1, std::memory_order_relaxed);
  }

  // Delivers an exchanged capture list to `sink`, oldest registration last
  // (list order is LIFO like the Treiber stack it replaces; consumers are
  // independent so order is unobservable).
  void drain_chain(outset_waiter* w, waiter_sink sink, void* ctx) {
    while (w != nullptr && w != terminated_waiter()) {
      outset_waiter* next = w->next.load(std::memory_order_relaxed);
      count_delivered();
      sink(ctx, w);
      w = next;
    }
  }

  // reset() helper: hands a chain's records to `sink` for reclamation
  // WITHOUT counting them as delivered (abandoned registrations).
  static void scrub_chain(outset_waiter* w, waiter_sink sink, void* ctx) {
    while (w != nullptr && w != terminated_waiter()) {
      outset_waiter* next = w->next.load(std::memory_order_relaxed);
      sink(ctx, w);
      w = next;
    }
  }

 private:
  std::atomic<std::uint64_t> adds_{0};
  std::atomic<std::uint64_t> add_cas_retries_{0};
  std::atomic<std::uint64_t> rejected_adds_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> subtrees_offloaded_{0};
  std::atomic<std::uint64_t> group_adds_{0};
};

}  // namespace spdag
