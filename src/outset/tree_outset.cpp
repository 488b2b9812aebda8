#include "outset/tree_outset.hpp"

#include <cassert>
#include <vector>

#include "util/rng.hpp"

namespace spdag {

namespace {

// Destructor sink: return a stranded registration to the registry's waiter
// pool (ctx). Destruction-time only — structured use resets through the
// factory first.
void repool_waiter_cell(void* ctx, outset_waiter* w) {
  pool_delete(*static_cast<object_pool*>(ctx), w);
}

}  // namespace

// One stolen unit of the finalize walk: a child group whose subtree is still
// to be drained. Carries everything the walk needs so any thread can run it;
// releases its own cell and then fires the enqueuer's hook.
struct tree_outset::drain_task final : outset_drain_task {
  tree_outset* owner = nullptr;
  tree_node* group = nullptr;
  waiter_sink sink = nullptr;
  void* sink_ctx = nullptr;
  drain_spawner spawn = nullptr;
  void* spawn_ctx = nullptr;

  void run() override {
    tree_outset* o = owner;
    void (*done)(void*) = on_done;
    void* done_ctx = on_done_ctx;
    o->drain_nodes(group, o->cfg_.fanout, sink, sink_ctx, spawn, spawn_ctx);
    // Release before signaling completion: the hook may drop the last pin on
    // the finalize context and tear the out-set down, which is safe once
    // this subtree is fully drained and the cell is back in its pool.
    pool_delete(*o->drains_, this);
    if (done != nullptr) done(done_ctx);
  }
};

tree_outset::pool_set tree_outset::resolve_pools(
    const tree_outset_config& cfg) {
  pool_registry& pools =
      cfg.pools != nullptr ? *cfg.pools : default_pool_registry();
  return {&tree_outset_group_pool(pools, cfg.fanout),
          &outset_waiter_pool(pools),
          &pools.get("outset_drain", sizeof(drain_task), alignof(drain_task))};
}

tree_outset::tree_outset(const tree_outset_config& cfg, const pool_set& pools)
    : cfg_(cfg),
      groups_(pools.groups),
      waiters_(pools.waiters),
      drains_(pools.drains) {
  assert(cfg_.fanout >= 2 && "a tree out-set needs at least two children");
}

tree_outset::~tree_outset() {
  // Registrations still parked here (a tree destroyed without a factory
  // reset) go back to THE registry waiter pool they were drawn from — a
  // no-op sink would drop the records on the floor. Structured use resets
  // before destruction, so this walk is usually empty.
  reset(&repool_waiter_cell, waiters_);
}

bool tree_outset::add(outset_waiter* w) noexcept {
  tree_node* n = &base_;
  std::uint32_t depth = 0;
  // Deep-broadcast mode: dive along a random path (growing groups as
  // needed) before the first CAS, building the deep tree contention would.
  // A terminated children pointer means finalize already sealed this node;
  // stop diving and run the normal protocol here — the node's head may
  // still capture us, and if not the head sentinel rejects us below.
  while (depth < cfg_.scatter_depth && depth < cfg_.max_depth) {
    tree_node* kids = n->children.load(std::memory_order_acquire);
    if (kids == nullptr) kids = grow(n);
    if (kids == terminated_children()) break;
    n = kids + thread_rng().below(cfg_.fanout);
    ++depth;
  }
  for (;;) {
    outset_waiter* head = n->head.load(std::memory_order_acquire);
    for (;;) {
      if (head == terminated_waiter()) {
        // This node was drained, so the whole out-set is finalizing (only
        // finalize installs the sentinel); the hand-off is the caller's.
        count_rejected();
        return false;
      }
      w->next.store(head, std::memory_order_relaxed);
      if (n->head.compare_exchange_weak(head, w, std::memory_order_release,
                                        std::memory_order_acquire)) {
        count_add();
        return true;
      }
      count_retry();
      // Another consumer hit this cache line in our window — the contention
      // signal. Move down to spread out, unless the depth cap says to stay,
      // or the growth-damping coin (see file comment) comes up tails — the
      // same 1/threshold gate as the in-counter's grow().
      if (depth < cfg_.max_depth &&
          (cfg_.grow_threshold == 1 ||
           (cfg_.grow_threshold != 0 &&
            thread_rng().below(cfg_.grow_threshold) == 0))) {
        break;
      }
    }
    tree_node* kids = n->children.load(std::memory_order_acquire);
    if (kids == nullptr) kids = grow(n);
    if (kids == terminated_children()) {
      // finalize sealed this node before any group could be installed; the
      // future is completed and the caller delivers its consumer itself.
      count_rejected();
      return false;
    }
    n = kids + thread_rng().below(cfg_.fanout);
    ++depth;
  }
}

std::uint32_t tree_outset::add_group(outset_waiter* head, outset_waiter* tail,
                                     std::uint32_t n) noexcept {
  // Same walk as add() — scatter dive, CAS, grow-on-contention descent —
  // except the winning CAS splices the whole chain onto one node's list.
  tree_node* nd = &base_;
  std::uint32_t depth = 0;
  while (depth < cfg_.scatter_depth && depth < cfg_.max_depth) {
    tree_node* kids = nd->children.load(std::memory_order_acquire);
    if (kids == nullptr) kids = grow(nd);
    if (kids == terminated_children()) break;
    nd = kids + thread_rng().below(cfg_.fanout);
    ++depth;
  }
  for (;;) {
    outset_waiter* h = nd->head.load(std::memory_order_acquire);
    for (;;) {
      if (h == terminated_waiter()) {
        count_rejected(n);
        return 0;
      }
      tail->next.store(h, std::memory_order_relaxed);
      if (nd->head.compare_exchange_weak(h, head, std::memory_order_release,
                                         std::memory_order_acquire)) {
        count_add(n);
        count_group_add();
        return n;
      }
      count_retry();
      if (depth < cfg_.max_depth &&
          (cfg_.grow_threshold == 1 ||
           (cfg_.grow_threshold != 0 &&
            thread_rng().below(cfg_.grow_threshold) == 0))) {
        break;
      }
    }
    tree_node* kids = nd->children.load(std::memory_order_acquire);
    if (kids == nullptr) kids = grow(nd);
    if (kids == terminated_children()) {
      count_rejected(n);
      return 0;
    }
    nd = kids + thread_rng().below(cfg_.fanout);
    ++depth;
  }
}

tree_outset::tree_node* tree_outset::grow(tree_node* n) noexcept {
  // One pool cell per group: fanout fresh node lines. The slab pool keeps
  // growth on the registration critical path away from malloc (per-worker
  // magazine hit in steady state).
  auto* kids = static_cast<tree_node*>(groups_->allocate());
  for (std::uint32_t i = 0; i < cfg_.fanout; ++i) {
    ::new (kids + i) tree_node{};
  }
  tree_node* expected = nullptr;
  if (n->children.compare_exchange_strong(expected, kids,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return kids;
  }
  groups_->deallocate(kids);
  return expected;  // the winning group — or the finalizer's sentinel
}

void tree_outset::finalize(waiter_sink sink, void* ctx) {
  finalize(sink, ctx, /*spawn=*/nullptr, /*spawn_ctx=*/nullptr);
}

void tree_outset::finalize(waiter_sink sink, void* ctx, drain_spawner spawn,
                           void* spawn_ctx) {
  drain_nodes(&base_, 1, sink, ctx, spawn, spawn_ctx);
}

void tree_outset::drain_nodes(tree_node* first, std::uint32_t count,
                              waiter_sink sink, void* ctx, drain_spawner spawn,
                              void* spawn_ctx) {
  struct frame {
    tree_node* first;
    std::uint32_t count;
  };
  // Explicit DFS stack: one frame per kept (not offloaded) group, so a
  // pathological tree costs heap, never call stack. Stays empty — no heap
  // touch — for the common ungrown tree and whenever a spawner is given.
  std::vector<frame> stack;
  frame f{first, count};
  for (;;) {
    for (std::uint32_t i = 0; i < f.count; ++i) {
      tree_node* n = f.first + i;
      // Seal the children pointer BEFORE draining the list head. The
      // pointer is write-once: either we read an installed group here (and
      // will drain or offload it), or our sentinel lands and no group can
      // ever be installed — so no add can sneak a waiter under a node this
      // walk already passed.
      tree_node* kids = n->children.load(std::memory_order_acquire);
      if (kids == nullptr) {
        n->children.compare_exchange_strong(kids, terminated_children(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
        // On failure a concurrent grow won; `kids` now holds its group.
      }
      outset_waiter* w =
          n->head.exchange(terminated_waiter(), std::memory_order_acq_rel);
      // Stream this node's waiters out before touching descendants:
      // consumers captured near the top of the tree are already running on
      // other workers while deeper nodes drain — the broadcast proceeds in
      // parallel down the tree.
      drain_chain(w, sink, ctx);
      if (kids == nullptr || kids == terminated_children()) continue;
      if (spawn != nullptr) {
        // Hand the whole subtree to the spawner as one stolen work unit;
        // the task re-offloads the groups below it, so the frontier widens
        // by `fanout` per level across however many workers go idle.
        auto* t = pool_new<drain_task>(*drains_);
        t->owner = this;
        t->group = kids;
        t->sink = sink;
        t->sink_ctx = ctx;
        t->spawn = spawn;
        t->spawn_ctx = spawn_ctx;
        count_offloaded();
        spawn(spawn_ctx, t);
      } else {
        stack.push_back({kids, cfg_.fanout});
      }
    }
    if (stack.empty()) break;
    f = stack.back();
    stack.pop_back();
  }
}

void tree_outset::reset(waiter_sink sink, void* ctx) {
  struct frame {
    tree_node* first;
    bool owned;  // pool group (fanout nodes) vs the embedded base node
  };
  std::vector<frame> stack;
  frame f{&base_, false};
  for (;;) {
    const std::uint32_t count = f.owned ? cfg_.fanout : 1;
    for (std::uint32_t i = 0; i < count; ++i) {
      tree_node* n = f.first + i;
      // Abandoned registrations go back to the pool undelivered.
      scrub_chain(n->head.exchange(nullptr, std::memory_order_relaxed), sink,
                  ctx);
      tree_node* kids = n->children.exchange(nullptr, std::memory_order_relaxed);
      if (kids != nullptr && kids != terminated_children()) {
        stack.push_back({kids, true});
      }
    }
    if (f.owned) groups_->deallocate(f.first);
    if (stack.empty()) break;
    f = stack.back();
    stack.pop_back();
  }
}

std::size_t tree_outset::node_count() const {
  struct frame {
    const tree_node* first;
    std::uint32_t count;
  };
  std::vector<frame> stack;
  frame f{&base_, 1};
  std::size_t total = 0;
  for (;;) {
    total += f.count;
    for (std::uint32_t i = 0; i < f.count; ++i) {
      const tree_node* kids =
          f.first[i].children.load(std::memory_order_acquire);
      if (kids != nullptr && kids != terminated_children()) {
        stack.push_back({kids, cfg_.fanout});
      }
    }
    if (stack.empty()) break;
    f = stack.back();
    stack.pop_back();
  }
  return total;
}

std::size_t tree_outset::max_depth() const {
  struct frame {
    const tree_node* first;
    std::uint32_t count;
    std::size_t depth;
  };
  std::vector<frame> stack;
  frame f{&base_, 1, 0};
  std::size_t deepest = 0;
  for (;;) {
    if (f.depth > deepest) deepest = f.depth;
    for (std::uint32_t i = 0; i < f.count; ++i) {
      const tree_node* kids =
          f.first[i].children.load(std::memory_order_acquire);
      if (kids != nullptr && kids != terminated_children()) {
        stack.push_back({kids, cfg_.fanout, f.depth + 1});
      }
    }
    if (stack.empty()) break;
    f = stack.back();
    stack.pop_back();
  }
  return deepest;
}

std::size_t tree_outset::recycled_group_count() const {
  return groups_->stats().frees;
}

}  // namespace spdag
