#pragma once
// dag_engine: the sp-dag data structure (paper Figure 3).
//
// Implements make / chain / spawn / signal on top of a pluggable dependency
// counter. Scheduling is delegated through the `executor` interface: the
// engine pushes a vertex to the executor exactly once, at the moment its
// dependency counter reaches zero (readiness detection via the depart
// return value, paper section 5). The executor sees one kind of work: an
// out-set subtree drain from a parallel future completion is wrapped in a
// vertex too (enqueue_drain). Vertices and dec-pairs are drawn from the
// engine's pool registry (src/mem/), so the spawn path's bookkeeping never
// hits malloc in steady state.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dag/vertex.hpp"
#include "incounter/factory.hpp"
#include "mem/registry.hpp"
#include "mem/slot_ledger.hpp"
#include "util/cache_aligned.hpp"

namespace spdag {

class outset_drain_task;  // src/outset/outset.hpp

// Whoever runs ready vertices (the work-stealing scheduler, or a trivial
// serial loop in tests).
class executor {
 public:
  virtual ~executor() = default;
  virtual void enqueue(vertex* v) = 0;
};

// The engine's ledger: monotone tallies of dag operations, cheap enough to
// keep on. The integration tests use them to prove conservation laws
// (created == recycled, one signal per leaf, ...). The engine keeps one row
// per thread slot and dag_engine::stats() returns the rows' sum as a
// snapshot of this same struct; copying a snapshot loads every field. The
// fields stay atomics so a row can be read while its owner writes it.
struct engine_stats {
  std::atomic<std::uint64_t> vertices_created{0};
  std::atomic<std::uint64_t> vertices_recycled{0};
  std::atomic<std::uint64_t> spawns{0};
  std::atomic<std::uint64_t> chains{0};
  std::atomic<std::uint64_t> signals{0};
  std::atomic<std::uint64_t> pairs_created{0};
  std::atomic<std::uint64_t> pairs_recycled{0};
  std::atomic<std::uint64_t> executions{0};
  std::atomic<std::uint64_t> drains_enqueued{0};
  // Amortization ledger. `edges` counts dependency edges (surplus units ever
  // posted on finish counters: initial obligations, spawn arrives, and the
  // k-1 units of each batched spawn). `counter_incs` counts increment
  // OPERATIONS (one per arrive/add/initial-surplus acquire) and
  // `counter_decs` depart operations (always one per edge). Unbatched
  // execution therefore measures (incs + decs) / (2 * edges) == 1.0 exactly;
  // every spawn_batch(k) adds one inc op for k-1 edges, pushing the ratio
  // strictly below 1 — the `counter_ops_per_edge` metric the application
  // benches report and CI gates.
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::uint64_t> counter_incs{0};
  std::atomic<std::uint64_t> counter_decs{0};

  // One ledger field, for code that walks all of them.
  using field = std::atomic<std::uint64_t> engine_stats::*;

  engine_stats() = default;
  engine_stats(const engine_stats& other) noexcept;
  engine_stats& operator=(const engine_stats&) = delete;
};

class outset_factory;  // src/outset/factory.hpp

struct dag_engine_options {
  // Ablation A2: when true, the first sibling to claim a decrement handle
  // picks a random slot instead of the higher-in-the-tree one, voiding the
  // ordering invariant of Lemma 4.6. Counting stays correct, but a node can
  // then phase-change to zero while live handles still point into its
  // subtree — so this option MUST be combined with a non-reclaiming counter
  // ("dyn:<t>:noreclaim"); with reclamation it is a use-after-recycle.
  bool randomize_claim_order = false;

  // Factory futures created under this engine draw their out-sets (waiter
  // broadcast structures) from; borrowed, must outlive the engine. Null
  // means the process-wide default simple-out-set factory.
  outset_factory* outsets = nullptr;

  // Registry the engine's vertex/dec-pair pools (and the future states made
  // under it) come from; borrowed, must outlive the engine. Null means the
  // process-wide default slab registry.
  pool_registry* pools = nullptr;
};

class dag_engine {
 public:
  // The engine borrows the factory and executor; both must outlive it.
  dag_engine(counter_factory& factory, executor& exec,
             dag_engine_options options = {});
  // Requires quiescence (live_vertices() == 0, asserted): un-executed
  // vertices are pool cells whose body captures would otherwise leak.
  ~dag_engine();

  dag_engine(const dag_engine&) = delete;
  dag_engine& operator=(const dag_engine&) = delete;

  // --- the paper's operations ---

  // Creates the root vertex and its finish (final) vertex; returns
  // (root, final). The root is ready; final waits for the root's signal.
  std::pair<vertex*, vertex*> make();

  // Serial composition: nests a sequential computation under `u`.
  // Returns (v, w) where v runs first (fin = w) and w runs after v's
  // entire subtree completes. Must be the last dag operation u performs.
  // When u has no fin (a service ticket's launcher), the pair has make()'s
  // shape: w is a final vertex, and v a root.
  std::pair<vertex*, vertex*> chain(vertex* u);

  // Parallel composition: creates two parallel vertices under u's finish,
  // incrementing the finish counter once (one of the children stands for
  // u's continuation). Must be the last dag operation u performs.
  std::pair<vertex*, vertex*> spawn(vertex* u);

  // Batched parallel composition: creates k vertices under u's finish with
  // ONE counter operation covering all of them (u's transferred obligation
  // plus a k-1-unit batched increment), fills out[0..k) WITHOUT bodies and
  // without scheduling them. The children share the batch's increment
  // handles (vertex::shared_inc) and one k-owner decrement group. Must be
  // the last dag operation u performs; the caller assigns bodies and add()s
  // every child. k == 1 degenerates to handing u's obligation to one child.
  void spawn_batch_vertices(vertex* u, std::uint32_t k, vertex** out);

  // Convenience wrapper: spawn_batch_vertices + bodies from gen(i) + add().
  // gen is invoked synchronously for i in [0, k); each returned closure is
  // moved into child i's body before ANY child is scheduled (a scheduled
  // sibling may run, signal, and finish while later bodies are still being
  // assigned — assignment must therefore never touch an added vertex).
  template <typename Gen>
  void spawn_batch(vertex* u, std::uint32_t k, Gen&& gen) {
    vertex* local[32];
    std::vector<vertex*> heap;
    vertex** vs = local;
    if (k > 32) {
      heap.resize(k);
      vs = heap.data();
    }
    spawn_batch_vertices(u, k, vs);
    for (std::uint32_t i = 0; i < k; ++i) vs[i]->body = gen(i);
    for (std::uint32_t i = 0; i < k; ++i) add(vs[i]);
  }

  // Signals completion of u: decrements u.fin's counter; when that reaches
  // zero, u.fin is handed to the executor. Called by execute() for vertices
  // that did not chain/spawn.
  void signal(vertex* u);

  // The generalized constructor (paper's new_vertex): fresh vertex with
  // `n` initial dependencies and the given handles.
  vertex* new_vertex(vertex* fin, token inc, dec_pair* dpair, std::uint32_t n,
                     bool is_left);

  // Hands v to the executor iff its counter is (already) zero. Mirrors the
  // paper's Scheduler.add: vertices with pending dependencies are enqueued
  // later by the zeroing signal.
  void add(vertex* v);

  // Hands one out-set subtree-drain work unit to the executor as an
  // ordinary vertex (future_state::complete routes its parallel finalize
  // through here). The vertex has no fin, so nothing waits on it, and its
  // body runs t; deques, steals and steal requests move it like any other
  // vertex. The task is owned by that vertex from this point.
  void enqueue_drain(outset_drain_task* t);

  // Drain vertices enqueued and not yet through their body. Counted before
  // the vertex is published and settled after its task ran, so zero means
  // every drain was delivered. No finish waits on a drain, so a scheduler
  // reads this before it reports quiescence (run()'s epilogue,
  // service_idle()).
  std::size_t drains_pending() const noexcept {
    return drains_pending_.value.load(std::memory_order_acquire);
  }

  // Quiescent-only maintenance: trims every pool in this engine's registry
  // (flush magazines + recycle list, release fully-free slabs upstream —
  // see object_pool::trim), returning slabs released. ONLY legal between
  // run()s: every scheduler's run() drains to quiescence before returning,
  // and its idle workers then execute nothing until the next run() — which
  // is exactly the no-racing-readers window
  // in which unmapping free slabs cannot violate the stale-read stability
  // argument live slabs rely on. Asserts live_vertices() == 0 as a cheap
  // proxy for that contract. If the registry is shared (the process-wide
  // default), the same must hold for every other engine drawing from it.
  std::size_t trim_pools();

  // Service-facing checked trim: like trim_pools(), but a mistimed call is
  // a no-op instead of an assert — returns false (without touching the
  // pools) when the engine is not quiescent. The caller must still prevent
  // NEW work from entering between the check and the trim
  // (dag_service::trim_pools closes admission first); the check turns a
  // mistimed call into a clean refusal, it does not license concurrent
  // allocation. On success `*slabs_released` (if non-null) receives the
  // slab count handed back upstream.
  bool try_trim_pools(std::size_t* slabs_released = nullptr);

  // Live-mode trim: legal while this engine (and anything sharing its
  // registry) is mid-run. Does NOT demand live_vertices() == 0 — it routes
  // through pool_registry::trim_live(), which retires fully-free slabs into
  // epoch limbo and frees them only after the 2-epoch delay proves no
  // pinned worker can still reach them. Magazines stay untouched, so this
  // is strictly weaker than trim_pools() but needs no quiescence window at
  // all. Returns slabs retired this call; `*slabs_reclaimed` (if non-null)
  // receives how many limbo slabs the accompanying reclaim sweep actually
  // freed.
  std::size_t trim_pools_live(std::size_t* slabs_reclaimed = nullptr);

  // Runs v's body with this-vertex context, signals if v is not dead, and
  // recycles v. Called by the executor's workers. An external vertex
  // (vertex::external) is only run and counted: it has no fin to signal
  // and is not the engine's to recycle, and execute() does not read it
  // after its body returns.
  void execute(vertex* v);

  // --- plumbing ---
  counter_factory& factory() noexcept { return factory_; }
  outset_factory& outsets() noexcept { return *outsets_; }
  pool_registry& pools() noexcept { return *pools_; }

  // The "future_state" pool for one state geometry, memoized so the
  // fork2_future hot path is two uncontended loads instead of the
  // registry's mutexed string lookup per future creation.
  object_pool& state_pool(std::size_t bytes, std::size_t align);
  executor& exec() noexcept { return exec_; }
  bool uses_tokens() const noexcept { return uses_tokens_; }

  // The ledger summed over every row, minus the reset_stats() baseline.
  // Exact once the engine is quiescent; mid-run it is a sum of per-row
  // snapshots taken one after another.
  engine_stats stats() const noexcept;
  // Makes stats() read zero from here on. It records the current sums as a
  // baseline and never writes a row, so it cannot lose an increment a
  // running thread is making.
  void reset_stats() noexcept;

  // Free cells cached for reuse in the backing pools (tests). Registry-wide:
  // engines sharing one registry see each other's cached cells.
  std::size_t pooled_vertices() const noexcept {
    return vertex_pool_->stats().cached();
  }
  std::size_t pooled_pairs() const noexcept {
    return pair_pool_->stats().cached();
  }
  // Vertices created and not yet recycled, over the engine's lifetime (the
  // reset_stats() baseline does not apply).
  std::size_t live_vertices() const noexcept;

  // The vertex currently executing on this thread (the paper's this_vertex).
  static vertex* current_vertex() noexcept;
  static dag_engine* current_engine() noexcept;

 private:
  vertex* alloc_vertex();
  void recycle(vertex* v);
  dec_pair* alloc_pair(token t0, token t1, std::uint32_t owners,
                       bool grouped = false);
  void release_pair_ref(dec_pair* p);
  token claim_dec(vertex* u);
  // Adds d to field f of the calling thread's ledger row.
  void tally(engine_stats::field f, std::uint64_t d = 1) noexcept;
  // Stores the sum of every row into `out`.
  void sum_rows(engine_stats& out) const noexcept;

  counter_factory& factory_;
  outset_factory* outsets_;
  pool_registry* pools_;
  executor& exec_;
  dag_engine_options options_;
  bool uses_tokens_;

  // The ledger: one row per thread slot (mem/slot_ledger.hpp), so the
  // per-vertex tallies never contend.
  slot_ledger<engine_stats> ledger_;
  engine_stats baseline_;  // reset_stats(): subtracted by stats()

  // See drains_pending(). On a line of its own: the fields around it are
  // read by every worker on every vertex.
  cache_aligned<std::atomic<std::size_t>> drains_pending_{0};

  object_pool* vertex_pool_;
  object_pool* pair_pool_;

  // Append-only memo of state_pool() lookups: readers scan lock-free (key
  // acquire-load pairs with the installer's release-store, which follows
  // the pool store); installs take memo_mu_ (cold, once per geometry).
  struct state_pool_memo {
    std::atomic<std::uint64_t> key{0};  // bytes<<16 | align; 0 = empty
    std::atomic<object_pool*> pool{nullptr};
  };
  static constexpr std::size_t state_pool_slots = 8;
  state_pool_memo state_pools_[state_pool_slots];
  std::mutex memo_mu_;
};

// --- nested-parallelism sugar (usable inside vertex bodies) ---

// Parallel composition of two closures under the current vertex: one spawn,
// both children scheduled. Must be the last dag action of the current body.
template <typename L, typename R>
void fork2(L&& left, R&& right) {
  dag_engine* eng = dag_engine::current_engine();
  vertex* u = dag_engine::current_vertex();
  auto [v, w] = eng->spawn(u);
  v->body = std::forward<L>(left);
  w->body = std::forward<R>(right);
  eng->add(v);
  eng->add(w);
}

// Serial composition under the current vertex: runs `first`'s entire nested
// computation (a finish block), then `then`. Must be the last dag action of
// the current body.
template <typename F, typename T>
void finish_then(F&& first, T&& then) {
  dag_engine* eng = dag_engine::current_engine();
  vertex* u = dag_engine::current_vertex();
  auto [v, w] = eng->chain(u);
  v->body = std::forward<F>(first);
  w->body = std::forward<T>(then);
  // Register w BEFORE publishing v: once v is enqueued, another worker can
  // run v's entire subtree, signal w, execute and recycle it — after which
  // touching w here would be a use-after-recycle.
  eng->add(w);
  eng->add(v);
}

}  // namespace spdag
