#include "dag/engine.hpp"

#include <cassert>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "outset/factory.hpp"
#include "util/rng.hpp"

namespace spdag {

namespace {
thread_local vertex* tls_current_vertex = nullptr;
thread_local dag_engine* tls_current_engine = nullptr;

constexpr engine_stats::field ledger_fields[] = {
    &engine_stats::vertices_created,
    &engine_stats::vertices_recycled,
    &engine_stats::spawns,
    &engine_stats::chains,
    &engine_stats::signals,
    &engine_stats::pairs_created,
    &engine_stats::pairs_recycled,
    &engine_stats::executions,
    &engine_stats::drains_enqueued,
    &engine_stats::edges,
    &engine_stats::counter_incs,
    &engine_stats::counter_decs,
};
}  // namespace

engine_stats::engine_stats(const engine_stats& other) noexcept {
  for (field f : ledger_fields) {
    (this->*f).store((other.*f).load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
}

vertex* dag_engine::current_vertex() noexcept { return tls_current_vertex; }
dag_engine* dag_engine::current_engine() noexcept { return tls_current_engine; }

void dag_engine::tally(engine_stats::field f, std::uint64_t d) noexcept {
  // Release stores, so that live_vertices()' acquire loads see every
  // creation that preceded a counted recycle (see there).
  ledger_.add(f, d, std::memory_order_release);
}

void dag_engine::sum_rows(engine_stats& out) const noexcept {
  for (engine_stats::field f : ledger_fields) {
    (out.*f).store(ledger_.sum(f), std::memory_order_relaxed);
  }
}

engine_stats dag_engine::stats() const noexcept {
  engine_stats s;
  sum_rows(s);
  for (engine_stats::field f : ledger_fields) {
    (s.*f).fetch_sub((baseline_.*f).load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  return s;
}

void dag_engine::reset_stats() noexcept { sum_rows(baseline_); }

std::size_t dag_engine::live_vertices() const noexcept {
  // Recycled rows first. A vertex is recycled only by a thread that reached
  // it through some hand-off (a deque push, a ready counter) sequenced after
  // its creation was tallied, and every tally is a release store. So the
  // acquire load that counts a recycle also makes that vertex's creation
  // visible to the created sum read after it: the difference never
  // underflows, and a zero is never reached by missing a live vertex's
  // creation while counting its recycle.
  const std::uint64_t recycled =
      ledger_.sum(&engine_stats::vertices_recycled, std::memory_order_acquire);
  const std::uint64_t created =
      ledger_.sum(&engine_stats::vertices_created, std::memory_order_acquire);
  return static_cast<std::size_t>(created - recycled);
}

void dag_engine::enqueue_drain(outset_drain_task* t) {
  tally(&engine_stats::drains_enqueued);
  drains_pending_.value.fetch_add(1, std::memory_order_acq_rel);
  obs::gauge_add(obs::g_drains_pending, 1);
  obs::emit(obs::ev_drain_enqueue);
  vertex* v = new_vertex(nullptr, 0, nullptr, 0, /*is_left=*/false);
  v->body = [this, t] {
    {
      // Drains walk out-set nodes whose recycled siblings a concurrent
      // trim_live() could unmap. Workers are pinned already (the pin nests);
      // this covers executors whose threads no scheduler pins.
      mem::epoch::pin_guard eg;
      obs::span_guard sg(obs::sp_drain);
      t->run();
    }
    obs::gauge_add(obs::g_drains_pending, -1);
    // Settled after run(), and after any re-offload the task made counted
    // itself: a zero count means delivered, not merely dequeued.
    drains_pending_.value.fetch_sub(1, std::memory_order_acq_rel);
  };
  exec_.enqueue(v);
}

std::size_t dag_engine::trim_pools() {
  std::size_t released = 0;
  [[maybe_unused]] const bool quiescent = try_trim_pools(&released);
  assert(quiescent &&
         "trim_pools requires quiescence: call only between run()s");
  return released;
}

bool dag_engine::try_trim_pools(std::size_t* slabs_released) {
  if (live_vertices() != 0) return false;
  obs::span_guard sg(obs::sp_trim);
  const std::size_t released = pools_->trim();
  if (slabs_released != nullptr) *slabs_released = released;
  return true;
}

std::size_t dag_engine::trim_pools_live(std::size_t* slabs_reclaimed) {
  obs::span_guard sg(obs::sp_trim);
  return pools_->trim_live(slabs_reclaimed);
}

dag_engine::dag_engine(counter_factory& factory, executor& exec,
                       dag_engine_options options)
    : factory_(factory),
      outsets_(options.outsets != nullptr ? options.outsets
                                          : &default_outset_factory()),
      pools_(options.pools != nullptr ? options.pools
                                      : &default_pool_registry()),
      exec_(exec),
      options_(options),
      vertex_pool_(&pools_->get("vertex", sizeof(vertex), alignof(vertex))),
      pair_pool_(&pools_->get("dec_pair", sizeof(dec_pair), alignof(dec_pair))) {
  // Counters from one factory are homogeneous; probe once.
  dep_counter* probe = factory_.acquire(0);
  uses_tokens_ = probe->uses_tokens();
  factory_.release(probe);
}

dag_engine::~dag_engine() {
  // Teardown contract: the engine must be quiescent. Vertices are pool
  // cells destroyed by recycle(); a vertex still live here would leak
  // whatever its body captured (the pool reclaims raw storage only). Every
  // scheduler's run() drains to quiescence before returning, so this only
  // trips on direct engine misuse (make()/spawn() without executing).
  assert(live_vertices() == 0 &&
         "dag_engine destroyed with live vertices; their bodies leak");
}

object_pool& dag_engine::state_pool(std::size_t bytes, std::size_t align) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(bytes) << 16) | static_cast<std::uint64_t>(align);
  for (auto& e : state_pools_) {
    if (e.key.load(std::memory_order_acquire) == key) {
      return *e.pool.load(std::memory_order_relaxed);
    }
  }
  object_pool& p = pools_->get("future_state", bytes, align);
  std::lock_guard<std::mutex> lock(memo_mu_);
  for (auto& e : state_pools_) {
    const std::uint64_t k = e.key.load(std::memory_order_relaxed);
    if (k == key) return p;  // a racer installed it first
    if (k == 0) {
      e.pool.store(&p, std::memory_order_relaxed);
      e.key.store(key, std::memory_order_release);
      return p;
    }
  }
  // Memo full (more than state_pool_slots distinct geometries): serve from
  // the registry each time — correct, just uncached.
  return p;
}

vertex* dag_engine::alloc_vertex() {
  tally(&engine_stats::vertices_created);
  return pool_new<vertex>(*vertex_pool_);
}

void dag_engine::recycle(vertex* v) {
  if (v->counter != nullptr) {
    factory_.release(v->counter);
    v->counter = nullptr;
  }
  tally(&engine_stats::vertices_recycled);
  pool_delete(*vertex_pool_, v);
}

dec_pair* dag_engine::alloc_pair(token t0, token t1, std::uint32_t owners,
                                 bool grouped) {
  dec_pair* p = pool_new<dec_pair>(*pair_pool_);
  p->reset(t0, t1, owners, grouped);
  tally(&engine_stats::pairs_created);
  return p;
}

void dag_engine::release_pair_ref(dec_pair* p) {
  if (p->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    tally(&engine_stats::pairs_recycled);
    pool_delete(*pair_pool_, p);
  }
}

token dag_engine::claim_dec(vertex* u) {
  obs::emit(obs::ev_claim_dec);
  dec_pair* p = u->dpair;
  assert(p != nullptr && "claim_dec on a vertex without a decrement pair");
  // Test-and-set: the first sibling to need a decrement handle takes t[0],
  // the handle pointing at least as high in the SNZI tree as t[1] (paper
  // section 3.3, Lemma 4.6's ordering invariant). Callers: spawn() claims
  // the parent's inherited handle into the new pair, and signal()/the
  // execute() epilogue claim at depart time — execute() deliberately claims
  // BEFORE recycling v (the handle lives in v->dpair) and departs after.
  // The ablation policy lets the first claimer pick a random slot instead —
  // never on a grouped (spawn_batch) pair, whose t[1] is a multi-unit batch
  // token: all owners-1 later claimers must land on it (see dec_pair).
  const std::int8_t want =
      (options_.randomize_claim_order && !p->grouped)
          ? static_cast<std::int8_t>(thread_rng()() & 1)
          : std::int8_t{0};
  std::int8_t first = -1;
  int idx;
  if (p->first_slot.compare_exchange_strong(first, want,
                                            std::memory_order_acq_rel)) {
    idx = want;
  } else {
    idx = 1 - first;  // the slot the first claimer left behind
  }
  const token t = p->t[idx];
  u->dpair = nullptr;
  release_pair_ref(p);
  return t;
}

// Only a vertex that waits gets a counter. Every increment and depart in
// the engine targets fin->counter, and every fin is make()'s final vertex or
// chain()'s continuation, both created here with n == 1. A vertex created
// with n == 0 is never anyone's fin, so nothing ever arrives on or departs
// from it; and futures gate their consumers through the producer's out-set,
// never through the consumer's own counter. So a null counter means "ready"
// (add()), and spawn/spawn_batch/signal assert that fin has one. Skipping
// the acquire keeps the counter factory's shared free stack off the
// per-vertex path.
vertex* dag_engine::new_vertex(vertex* fin, token inc, dec_pair* dpair,
                               std::uint32_t n, bool is_left) {
  vertex* v = alloc_vertex();
  v->counter = nullptr;
  if (n > 0) {
    v->counter = factory_.acquire(n);
    // An initial surplus is one increment operation covering n edges (the
    // obligations the new counter starts with) — see engine_stats::edges.
    tally(&engine_stats::counter_incs);
    tally(&engine_stats::edges, n);
  }
  v->fin = fin;
  v->inc = inc;
  v->dpair = dpair;
  v->is_left = is_left;
  v->dead = false;
  v->shared_inc = false;
  return v;
}

std::pair<vertex*, vertex*> dag_engine::make() {
  // Final vertex: one pending dependency (the root's signal); no finish of
  // its own — executing it ends the computation.
  vertex* final_v = new_vertex(nullptr, 0, nullptr, 1, /*is_left=*/false);
  const token h = final_v->counter->root_token();
  dec_pair* p = uses_tokens_ ? alloc_pair(h, h, 1) : nullptr;
  vertex* root = new_vertex(final_v, h, p, 0, /*is_left=*/true);
  return {root, final_v};
}

std::pair<vertex*, vertex*> dag_engine::chain(vertex* u) {
  tally(&engine_stats::chains);
  assert(!u->dead && "chain on a dead vertex");
  // w inherits u's obligation toward u.fin and waits for v's subtree.
  vertex* w = new_vertex(u->fin, u->inc, u->dpair, 1, u->is_left);
  w->shared_inc = u->shared_inc;  // same handle token, same sharing status
  u->dpair = nullptr;  // transferred
  const token h = w->counter->root_token();
  dec_pair* vp = uses_tokens_ ? alloc_pair(h, h, 1) : nullptr;
  // v's handle is w's fresh counter's root — unique by construction.
  vertex* v = new_vertex(w, h, vp, 0, /*is_left=*/true);
  u->dead = true;
  return {v, w};
}

std::pair<vertex*, vertex*> dag_engine::spawn(vertex* u) {
  tally(&engine_stats::spawns);
  obs::emit(obs::ev_spawn);
  assert(!u->dead && "spawn on a dead vertex");
  vertex* fin = u->fin;
  assert(fin != nullptr && "spawn requires a finish vertex");
  assert(fin->counter != nullptr && "a finish vertex always has a counter");
  // One increment for two new vertices: one of them stands for u's
  // continuation, whose obligation u already holds.
  const arrive_result r = fin->counter->arrive(u->inc, u->is_left);
  tally(&engine_stats::counter_incs);
  tally(&engine_stats::edges);
  dec_pair* np = nullptr;
  if (uses_tokens_) {
    // Claim AFTER the arrive completed (the paper's key invariant: the
    // arrive pins the counter nonzero, so the claimed handle cannot watch
    // its node phase-change out from under it), and order the pair
    // [inherited-higher, fresh-lower]. alloc_pair sets owners=2: both
    // children share the pair until each has claimed its slot.
    const token d1 = claim_dec(u);
    np = alloc_pair(d1, r.dec, /*owners=*/2);
  }
  vertex* v = new_vertex(fin, r.inc_left, np, 0, /*is_left=*/true);
  vertex* w = new_vertex(fin, r.inc_right, np, 0, /*is_left=*/false);
  // If u's handle was shared, another sharer growing the same hint may hold
  // the very same children — the new handles are shared too.
  v->shared_inc = u->shared_inc;
  w->shared_inc = u->shared_inc;
  u->dead = true;
  return {v, w};
}

void dag_engine::spawn_batch_vertices(vertex* u, std::uint32_t k,
                                      vertex** out) {
  assert(k >= 1 && "spawn_batch creates at least one vertex");
  assert(!u->dead && "spawn_batch on a dead vertex");
  vertex* fin = u->fin;
  assert(fin != nullptr && "spawn_batch requires a finish vertex");
  assert(fin->counter != nullptr && "a finish vertex always has a counter");
  tally(&engine_stats::spawns);
  obs::emit(obs::ev_spawn);
  if (k == 1) {
    // Degenerate batch: hand u's obligation to the single child, no new
    // increment at all (the counter never hears about this).
    out[0] = new_vertex(fin, u->inc, u->dpair, 0, u->is_left);
    out[0]->shared_inc = u->shared_inc;
    u->dpair = nullptr;
    u->dead = true;
    return;
  }
  // ONE batched increment covers the k-1 new edges (u's continuation
  // obligation accounts for the k-th); this is the amortization the batch
  // API exists for — counter_ops_per_edge drops below 1.
  const arrive_result r = fin->counter->add(u->inc, u->is_left, k - 1);
  tally(&engine_stats::counter_incs);
  tally(&engine_stats::edges, k - 1);
  dec_pair* np = nullptr;
  if (uses_tokens_) {
    // Same shape as spawn(): claim u's inherited (higher) handle only after
    // the batched arrive pinned the counter nonzero; r.dec carries the k-1
    // surplus units. The grouped pair makes the first claimer take t[0] and
    // every later claimer depart t[1] exactly once.
    const token d1 = claim_dec(u);
    np = alloc_pair(d1, r.dec, /*owners=*/k, /*grouped=*/true);
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    const bool left = (i % 2) == 0;
    vertex* v = new_vertex(fin, left ? r.inc_left : r.inc_right, np, 0, left);
    // All k children share the one arrive's two child handles.
    v->shared_inc = true;
    out[i] = v;
  }
  u->dead = true;
}

void dag_engine::signal(vertex* u) {
  tally(&engine_stats::signals);
  vertex* fin = u->fin;
  assert(fin != nullptr && "signal requires a finish vertex");
  assert(fin->counter != nullptr && "a finish vertex always has a counter");
  const token d = uses_tokens_ ? claim_dec(u) : 0;
  tally(&engine_stats::counter_decs);
  if (fin->counter->depart(d)) {
    exec_.enqueue(fin);
  }
}

void dag_engine::add(vertex* v) {
  if (v->counter == nullptr || v->counter->is_zero()) {
    exec_.enqueue(v);
  }
}

void dag_engine::execute(vertex* v) {
  tally(&engine_stats::executions);
  // Read before the body: once an external vertex's body has published
  // work, that work can finish and its owner free the vertex.
  const bool external = v->external;
  vertex* prev_v = tls_current_vertex;
  dag_engine* prev_e = tls_current_engine;
  tls_current_vertex = v;
  tls_current_engine = this;
  if (v->body) v->body();
  tls_current_vertex = prev_v;
  tls_current_engine = prev_e;
  if (external) return;
  // Recycle BEFORE signaling: the signal below may transitively enable the
  // final vertex on another worker, and the run is only quiescent once every
  // vertex is recycled. Claim the decrement handle first (it lives in v).
  const bool should_signal = !v->dead && v->fin != nullptr;
  vertex* fin = v->fin;
  const token d = (should_signal && uses_tokens_) ? claim_dec(v) : 0;
  const token abandoned_inc = should_signal ? v->inc : 0;
  const bool shared = v->shared_inc;
  recycle(v);
  if (should_signal) {
    tally(&engine_stats::signals);
    tally(&engine_stats::counter_decs);
    // This vertex never spawned, so its increment handle is dead; let the
    // counter reclaim the handle's node (appendix B) before the depart that
    // may hand `fin` to another worker. Never for a SHARED handle: a sibling
    // of the batch may still use it, and two sharers retiring the same node
    // would double-count its pair's retire (see vertex::shared_inc).
    if (uses_tokens_ && !shared) fin->counter->abandon(abandoned_inc);
    if (fin->counter->depart(d)) {
      exec_.enqueue(fin);
    }
  }
}

}  // namespace spdag
