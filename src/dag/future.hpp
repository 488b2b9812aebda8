#pragma once
// Structured futures on the sp-dag — the extension direction the paper's
// conclusion names ("more general, but still restricted, models of
// concurrency, such as those based on futures").
//
// A future here is STRUCTURED: its producer runs as an ordinary vertex under
// the enclosing finish, so the series-parallel discipline (and with it the
// in-counter's O(1) contention analysis) is preserved; the only new edge
// kind is producer -> consumer, represented by deferred scheduling rather
// than by a counter increment:
//
//   * fork2_future(p, c)  — parallel composition with a value: the left
//     child computes p() and completes the future, the right child runs
//     c(future) immediately. Must be the last dag action of the body.
//   * future_then(f, fn)  — schedules fn(value) as a new vertex under the
//     current finish; it runs once the future completes (immediately if it
//     already has). Must be the last dag action of the body.
//   * future<T>::ready()/get() — non-blocking inspection; get() requires
//     ready() (a consumer scheduled via future_then always sees it ready).
//
// Waiter management is delegated to a pluggable out-set (src/outset/) — the
// fan-out dual of the in-counter. The completion/registration race is
// resolved inside the out-set with per-node terminated sentinels: add()
// returns false exactly when finalize already ran, in which case the
// registrant schedules its own consumer. Which implementation a future uses
// comes from its engine's outset factory (runtime_config::outset, specs
// "outset:simple" | "outset:tree[:fanout[:threshold[:scatter]]]").
// Completion under an engine uses the out-set's PARALLEL finalize: each
// subtree drain becomes a vertex on the engine's executor
// (dag_engine::enqueue_drain), so idle workers steal and broadcast
// alongside the completing one; each task holds a pinned reference on the
// state, so the out-set is never reset under a still-running drain.
//
// Allocation: a future_state is one cell from the engine's pool registry
// ("future_state" pool, one per value-type size), reference-counted
// intrusively — fork2_future's hot path performs zero malloc/free under
// `alloc:pool` once the slabs are warm. Copying a future is cheap and
// shares the state (an atomic increment, shared_ptr semantics without the
// separate control block); the last copy to die destroys the state and
// hands the cell back to its pool.

#include <atomic>
#include <cassert>
#include <utility>

#include "dag/engine.hpp"
#include "mem/registry.hpp"
#include "obs/trace.hpp"
#include "outset/factory.hpp"

namespace spdag {

namespace detail {

template <typename T>
class future_state {
 public:
  future_state(outset_factory& outsets, object_pool& home)
      : outsets_(&outsets), waiters_(outsets.acquire()), home_(&home) {}

  ~future_state() {
    // release() scrubs registrations left behind by programs that abandoned
    // the future (its producer must still have run, or the enclosing finish
    // could never have fired) and destroys the out-set into its pool cell.
    outsets_->release(waiters_);
    if (ready()) reinterpret_cast<T*>(&storage_)->~T();
  }

  bool ready() const noexcept {
    return ready_.load(std::memory_order_acquire);
  }

  const T& value() const noexcept {
    assert(ready() && "future read before completion");
    return *reinterpret_cast<const T*>(&storage_);
  }

  void complete(T v, dag_engine* engine) {
    assert(!ready() && "future completed twice");
    ::new (&storage_) T(std::move(v));
    completion_engine_ = engine;  // fallback for engine-less registrations
    // Publish the value BEFORE finalizing: every delivery path (the sink
    // below, or a registrant whose add lost to the finalize) synchronizes
    // with this store through the out-set's sentinel or the executor queue.
    ready_.store(true, std::memory_order_release);
    obs::span_guard sg(obs::sp_finalize);
    if (engine != nullptr) {
      // Parallel finalize: deep out-set subtrees become drain vertices on
      // the engine's executor, so idle workers broadcast alongside this one.
      waiters_->finalize(&deliver, this, &offload_drain, this);
    } else {
      // No engine to schedule drain vertices on — walk serially.
      waiters_->finalize(&deliver, this);
    }
  }

  // Registers `consumer` to be enqueued on completion. If the future
  // completed concurrently (or earlier), schedules it here instead.
  // `engine` must be non-null: the bypass and lost-race paths below schedule
  // on it directly (the completion-engine fallback in deliver() only covers
  // waiters that reached the out-set some other way).
  void register_waiter(vertex* consumer, dag_engine* engine) {
    assert(engine != nullptr && "registration requires an engine");
    if (ready()) {
      engine->add(consumer);
      return;
    }
    outset_waiter* w = outsets_->acquire_waiter(consumer, engine);
    if (!waiters_->add(w)) {
      // The producer finalized between our check and the add; the value is
      // published, so schedule the consumer from here — exactly once.
      outsets_->release_waiter(w);
      engine->add(consumer);
    }
  }

  // Grouped registration: registers n consumers with ONE out-set operation
  // per 32-wide chunk (add_group splices a pre-linked waiter chain with a
  // single CAS on structured out-sets) — the fan-out dual of spawn_batch's
  // one batched increment. Any suffix the out-set rejects (the producer
  // finalized first; the value is published) is scheduled directly here,
  // exactly once per consumer.
  void register_waiter_group(vertex* const* consumers, std::uint32_t n,
                             dag_engine* engine) {
    assert(engine != nullptr && "registration requires an engine");
    std::uint32_t i = 0;
    if (!ready()) {
      while (i < n) {
        const std::uint32_t m = (n - i) < 32u ? (n - i) : 32u;
        outset_waiter* ws[32] = {};
        for (std::uint32_t j = 0; j < m; ++j) {
          ws[j] = outsets_->acquire_waiter(consumers[i + j], engine);
        }
        for (std::uint32_t j = 0; j + 1 < m; ++j) {
          ws[j]->next.store(ws[j + 1], std::memory_order_relaxed);
        }
        const std::uint32_t captured = waiters_->add_group(ws[0], ws[m - 1], m);
        for (std::uint32_t j = captured; j < m; ++j) {
          outsets_->release_waiter(ws[j]);
        }
        i += captured;
        if (captured < m) break;  // finalized: deliver the rest below
      }
    }
    for (; i < n; ++i) engine->add(consumers[i]);
  }

  // --- intrusive reference count (managed by future<T>) ---
  void add_ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }
  // True when the caller dropped the last reference and must destroy.
  bool drop_ref() noexcept {
    return refs_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  object_pool& home() noexcept { return *home_; }

 private:
  static void deliver(void* ctx, outset_waiter* w) {
    auto* self = static_cast<future_state*>(ctx);
    vertex* consumer = w->consumer;
    dag_engine* engine =
        w->engine != nullptr ? w->engine : self->completion_engine_;
    self->outsets_->release_waiter(w);
    engine->add(consumer);
  }

  // drain_spawner for the parallel finalize: pin this state across the
  // asynchronous drain (the task may run after the producer's own future
  // copy died; the pin keeps the out-set un-reset and the sink ctx valid
  // until the last drain's on_done), then hand the task to the engine.
  static void offload_drain(void* ctx, outset_drain_task* t) {
    auto* self = static_cast<future_state*>(ctx);
    self->add_ref();
    t->on_done = &drain_finished;
    t->on_done_ctx = self;
    self->completion_engine_->enqueue_drain(t);
  }

  static void drain_finished(void* ctx) {
    auto* self = static_cast<future_state*>(ctx);
    if (self->drop_ref()) {
      // Same epilogue as future<T>::release(): the last pin to go destroys
      // the state and returns its cell.
      object_pool& home = self->home();
      pool_delete(home, self);
    }
  }

  outset_factory* outsets_;
  outset* waiters_;
  object_pool* home_;  // the pool cell this state occupies
  dag_engine* completion_engine_ = nullptr;
  std::atomic<std::uint32_t> refs_{1};
  std::atomic<bool> ready_{false};
  alignas(T) unsigned char storage_[sizeof(T)];
};

}  // namespace detail

// A handle to one pooled future_state. Copies SHARE the state (intrusive
// refcount): passing a future by value into vertex bodies — what fork2_future
// and future_then do — is an atomic increment, and the last copy to die
// returns the state's cell to its pool. There is no separate share() call;
// copy IS share, as with the shared_ptr this replaces.
//
// Lifetime: a future's state borrows its out-set factory AND its pool cell
// from the engine it was made under, so every copy of a future must be
// dropped before its runtime is destroyed — which structured usage
// guarantees, since consumers are gated under the enclosing finish. Only
// futures made outside any engine (default factory + default registry) may
// outlive runtimes.
template <typename T>
class future {
 public:
  future() = default;

  future(const future& o) noexcept : state_(o.state_) {
    if (state_ != nullptr) state_->add_ref();
  }
  future(future&& o) noexcept : state_(o.state_) { o.state_ = nullptr; }
  future& operator=(const future& o) noexcept {
    detail::future_state<T>* s = o.state_;  // read first: o may alias *this
    if (s != nullptr) s->add_ref();
    release();
    state_ = s;
    return *this;
  }
  future& operator=(future&& o) noexcept {
    if (this != &o) {
      release();
      state_ = o.state_;
      o.state_ = nullptr;
    }
    return *this;
  }
  ~future() { release(); }

  bool valid() const noexcept { return state_ != nullptr; }
  bool ready() const noexcept { return state_ != nullptr && state_->ready(); }

  // The produced value; requires ready().
  const T& get() const noexcept {
    assert(valid());
    return state_->value();
  }

  // A fresh future backed by the current engine's out-set factory and pool
  // registry (the state-pool lookup is memoized on the engine — no registry
  // lock on the fork2_future hot path), or by the process-wide defaults
  // outside of any engine.
  static future make() {
    dag_engine* eng = dag_engine::current_engine();
    if (eng != nullptr) {
      return make_in(eng->outsets(), eng->state_pool(state_bytes, state_align));
    }
    return make(default_outset_factory());
  }

  // A fresh future on an explicit factory: its whole footprint (state cell
  // + out-set nodes + waiter records) comes from THAT factory's registry,
  // even when called inside an engine — so a future built on a long-lived
  // factory may outlive the current runtime.
  static future make(outset_factory& outsets) {
    return make_in(outsets, outsets.pools().get("future_state", state_bytes,
                                                state_align));
  }

  void complete(T v, dag_engine* engine) const {
    state_->complete(std::move(v), engine);
  }
  void register_waiter(vertex* consumer, dag_engine* engine) const {
    state_->register_waiter(consumer, engine);
  }
  void register_waiter_group(vertex* const* consumers, std::uint32_t n,
                             dag_engine* engine) const {
    state_->register_waiter_group(consumers, n, engine);
  }

 private:
  static constexpr std::size_t state_bytes = sizeof(detail::future_state<T>);
  static constexpr std::size_t state_align = alignof(detail::future_state<T>);

  static future make_in(outset_factory& outsets, object_pool& home) {
    future f;
    f.state_ = pool_new<detail::future_state<T>>(home, outsets, home);
    return f;
  }

  void release() noexcept {
    if (state_ != nullptr && state_->drop_ref()) {
      object_pool& home = state_->home();
      pool_delete(home, state_);
    }
    state_ = nullptr;
  }

  detail::future_state<T>* state_ = nullptr;
};

// Parallel composition with a value. Left child: computes producer() and
// completes the future. Right child: runs consumer(future) immediately
// (typically registering continuations with future_then). Must be the last
// dag action of the current body.
template <typename T, typename Producer, typename Consumer>
void fork2_future(Producer producer, Consumer consumer) {
  future<T> fut = future<T>::make();
  fork2(
      [producer = std::move(producer), fut]() mutable {
        fut.complete(producer(), dag_engine::current_engine());
      },
      [consumer = std::move(consumer), fut]() mutable { consumer(fut); });
}

// Schedules fn(value) as a fresh vertex under the current finish, gated on
// the future's completion. Must be the last dag action of the current body.
// The k = 1 batch (spawn_batch_vertices): the consumer inherits the current
// vertex's obligation, so the finish counter hears nothing and no edge is
// posted.
template <typename T, typename F>
void future_then(future<T> fut, F fn) {
  dag_engine* eng = dag_engine::current_engine();
  vertex* consumer = nullptr;
  eng->spawn_batch_vertices(dag_engine::current_vertex(), 1, &consumer);
  consumer->body = [fut, fn = std::move(fn)]() mutable { fn(fut.get()); };
  fut.register_waiter(consumer, eng);
}

// Batched future_then: schedules gen(i)(value) for i in [0, k) as k fresh
// vertices under the current finish, all gated on the one future — ONE
// batched counter increment (spawn_batch_vertices; the current vertex's
// obligation covers the k-th child) and one grouped out-set registration
// per 32 consumers. Must be the last dag action of the current body. gen
// runs synchronously for each i and returns the closure that will receive
// the completed value.
template <typename T, typename Gen>
void future_then_group(future<T> fut, std::uint32_t k, Gen gen) {
  assert(k >= 1 && "future_then_group needs at least one consumer");
  dag_engine* eng = dag_engine::current_engine();
  vertex* u = dag_engine::current_vertex();
  vertex* local[32];
  std::vector<vertex*> heap;
  vertex** vs = local;
  if (k > 32) {
    heap.resize(k);
    vs = heap.data();
  }
  eng->spawn_batch_vertices(u, k, vs);
  for (std::uint32_t i = 0; i < k; ++i) {
    vs[i]->body = [fut, fn = gen(i)]() mutable { fn(fut.get()); };
  }
  // Deferred scheduling: the consumers are NOT add()ed here — delivery (or
  // the already-ready bypass) inside the grouped registration schedules them.
  fut.register_waiter_group(vs, k, eng);
}

}  // namespace spdag
