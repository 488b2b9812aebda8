#pragma once
// tree_outset: a lock-free, grow-on-contention out-set tree — the symmetric
// counterpart of snzi_tree::grow() on the fan-out side.
//
// Shape. Every node owns one cache line holding a waiter-list head and a
// children pointer. A registering consumer starts at the base node and tries
// one CAS on the current node's list head. Success means the consumer has
// claimed a slot on that node's line and is done. Failure means another
// consumer hit the same line in the same window — the very contention signal
// snzi's grow() keys off — so the add *grows* the node (installing a group
// of `fanout` fresh children, each on its own cache line, with a single CAS,
// exactly like grow() installs a child_pair) and descends into a child
// chosen by a thread-local coin. Concurrent adds therefore separate after
// O(log_fanout c) failures in expectation and keep landing on disjoint
// lines; a single-threaded add is one uncontended CAS on the base, the same
// cost as simple_outset.
//
// Finalize. The producer walks the tree top-down, iteratively (an explicit
// frame stack, so depth is bounded by the heap, never the call stack). At
// each node it first seals the children pointer (CASing in a terminated
// sentinel when the node is childless, so no group can be installed under an
// already-drained node), then exchanges the list head for the
// terminated-waiter sentinel and streams the captured waiters to the sink
// *before* touching descendants — consumers registered near the top of the
// tree are running on other workers while deeper nodes are still being
// drained. With the parallel overload the walk itself is partitioned: the
// finalizer drains the base node, and every child group it finds is
// packaged as an outset_drain_task (one pool cell from the registry's
// "outset_drain" pool) and handed to the caller's spawner instead of being
// walked here; each task drains its group the same way and re-offloads the
// groups below it. Under a runtime the spawner makes each task a vertex
// (dag_engine::enqueue_drain), so idle workers steal whole subtree drains
// the way they steal any vertex. The add/finalize race is resolved
// per node regardless of which thread drains it: an add that loses a head
// CAS to the sentinel, or a grow that loses the children CAS to the
// sentinel, returns false and the registrant schedules its consumer itself
// (the future is already completed — both sentinels are only ever installed
// by the finalize walk, which starts after the value is published).
//
// Growth damping. Like the in-counter's grow(), descending can be gated on
// a 1/grow_threshold coin flipped per contention signal: with threshold t a
// collided add stays and fights on the current line with probability
// 1 - 1/t, so the tree grows roughly t-times slower under the same
// contention (threshold 1 = always grow, the analyzed setting; 0 = never,
// degenerating to simple_outset on the base line — a supported ablation, see
// factory.hpp).
//
// Deep-broadcast mode. scatter_depth > 0 makes every add dive that many
// levels (growing groups along a random path) before its first CAS, forcing
// the deep, wide trees that contention would build on a many-core box — the
// deterministic workload for measuring finalize-to-last-delivery latency and
// the parallel drain machinery on any hardware.
//
// Memory. Child groups (fanout cache-line nodes, one pool cell) and drain
// tasks come from the shared registry pools (src/mem/), so Figure-10 style
// churn (one future per iteration, millions of iterations) measures the
// structure, not malloc — and groups freed by reset() recirculate through
// the pool's per-worker magazines instead of a per-outset stash.

#include <cstdint>

#include "mem/registry.hpp"
#include "outset/outset.hpp"
#include "util/cache_aligned.hpp"

namespace spdag {

// THE node-group pool of a registry for one fanout (a group is `fanout`
// cache-line nodes in one cell) — the single definition of its identity,
// shared by every call site so factories and stand-alone trees can never
// diverge onto disjoint pools.
inline object_pool& tree_outset_group_pool(pool_registry& pools,
                                           std::uint32_t fanout) {
  return pools.get("outset_group", std::size_t{fanout} * cache_line_size,
                   cache_line_size);
}

// THE waiter-record pool of a registry — same single-definition rule. The
// factory acquires registrations from it, and ~tree_outset returns records
// stranded at destruction to it, so the two can never disagree.
inline object_pool& outset_waiter_pool(pool_registry& pools) {
  return pools.get("outset_waiter", sizeof(outset_waiter),
                   alignof(outset_waiter));
}

struct tree_outset_config {
  // Children installed per grow. 2 mirrors snzi's child_pair; wider fanouts
  // trade tree depth for a bigger finalize frontier.
  std::uint32_t fanout = 2;
  // Depth at which adds stop growing and spin on the deepest node's line.
  // Bounds the tree at fanout^max_depth nodes; with grow-on-contention the
  // expected depth is log_fanout(concurrent adders), far below the cap.
  std::uint32_t max_depth = 12;
  // A collided add descends with probability 1/grow_threshold (see file
  // comment); 1 = always, 0 = never.
  std::uint64_t grow_threshold = 1;
  // Deep-broadcast mode (see file comment): adds dive this many levels on a
  // random path before their first CAS. 0 = off (grow on contention only).
  // The dive grows groups unconditionally — it forces structure, bypassing
  // the grow_threshold coin — so combining it with the never-grow threshold
  // 0 is contradictory (the spec parser rejects "tree:<f>:0:<scatter>").
  std::uint32_t scatter_depth = 0;
  // Registry supplying node groups, drain tasks, and the waiter pool that
  // destruction-stranded records return to; null = the process-wide default
  // registry. Borrowed, must outlive the out-set — and must be the registry
  // the out-set's waiter records were drawn from.
  pool_registry* pools = nullptr;
};

class tree_outset final : public outset {
 public:
  // The registry pools a tree draws from. Each lookup takes the registry
  // mutex, so a factory resolves them once and hands them to every tree it
  // builds (one construction per future).
  struct pool_set {
    object_pool* groups;   // one `fanout`-node group per cell
    object_pool* waiters;  // registry waiter pool (destructor reclamation)
    object_pool* drains;   // drain_task cells for the parallel finalize
  };
  static pool_set resolve_pools(const tree_outset_config& cfg);

  explicit tree_outset(tree_outset_config cfg = {})
      : tree_outset(cfg, resolve_pools(cfg)) {}
  // `pools` must be resolve_pools(cfg).
  tree_outset(const tree_outset_config& cfg, const pool_set& pools);
  ~tree_outset() override;

  bool add(outset_waiter* w) noexcept override;
  // All-or-nothing: runs the same grow/descend walk as add, but the CAS that
  // wins lands the whole pre-linked chain on one node (returns n); losing to
  // a finalize sentinel rejects the group whole (returns 0).
  std::uint32_t add_group(outset_waiter* head, outset_waiter* tail,
                          std::uint32_t n) noexcept override;
  void finalize(waiter_sink sink, void* ctx) override;
  void finalize(waiter_sink sink, void* ctx, drain_spawner spawn,
                void* spawn_ctx) override;
  void reset(waiter_sink sink, void* ctx) override;

  std::uint32_t fanout() const noexcept { return cfg_.fanout; }
  std::uint64_t grow_threshold() const noexcept { return cfg_.grow_threshold; }
  std::uint32_t scatter_depth() const noexcept { return cfg_.scatter_depth; }

  // --- non-concurrent introspection (tests, space accounting) ---
  std::size_t node_count() const;  // reachable nodes incl. base
  std::size_t max_depth() const;   // base = depth 0
  // Groups ever returned to the backing pool (pool-scoped, monotone; a
  // lower bound on reuse since the pool is shared across out-sets).
  std::size_t recycled_group_count() const;

 private:
  struct alignas(cache_line_size) tree_node {
    std::atomic<outset_waiter*> head{nullptr};
    // First node of a `fanout`-wide child group, terminated_children(), or
    // nullptr while childless.
    std::atomic<tree_node*> children{nullptr};
  };
  static_assert(sizeof(tree_node) == cache_line_size,
                "an out-set node must own exactly one cache line");

  // One stolen finalize unit: a child group awaiting drain (tree_outset.cpp).
  struct drain_task;

  static tree_node* terminated_children() noexcept {
    return reinterpret_cast<tree_node*>(std::uintptr_t{1});
  }

  // Returns n's children, installing a fresh group if absent. May return
  // terminated_children() when finalize sealed the node first.
  tree_node* grow(tree_node* n) noexcept;

  // The iterative finalize walk over `count` nodes starting at `first`.
  // Seals + drains each node, and hands every child group to `spawn` when
  // present, else walks it from an explicit stack. Shared by finalize()
  // (from the base node) and drain_task::run() (from a stolen group).
  void drain_nodes(tree_node* first, std::uint32_t count, waiter_sink sink,
                   void* ctx, drain_spawner spawn, void* spawn_ctx);

  tree_outset_config cfg_;
  object_pool* groups_;
  object_pool* waiters_;
  object_pool* drains_;
  tree_node base_;
};

}  // namespace spdag
