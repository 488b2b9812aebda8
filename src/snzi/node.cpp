#include "snzi/node.hpp"

#include "util/rng.hpp"

namespace spdag::snzi {

namespace {

// Tagged-pointer packing for the free-pair stack: 48-bit pointer, 16-bit tag.
// x86-64/AArch64 user pointers fit in 48 bits; the monotone tag defeats ABA
// between a pop's head read and its CAS.
constexpr std::uint64_t ptr_mask = (1ULL << 48) - 1;

std::uint64_t pack_tagged(child_pair* p, std::uint64_t tag) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & ptr_mask) | (tag << 48);
}
child_pair* ptr_of(std::uint64_t v) noexcept {
  return reinterpret_cast<child_pair*>(v & ptr_mask);
}
std::uint64_t tag_of(std::uint64_t v) noexcept { return v >> 48; }

}  // namespace

void free_pair_push(tree_context& ctx, child_pair* pair) noexcept {
  std::uint64_t head = ctx.free_pairs.load(std::memory_order_acquire);
  for (;;) {
    pair->next_free.store(ptr_of(head), std::memory_order_relaxed);
    const std::uint64_t fresh = pack_tagged(pair, tag_of(head) + 1);
    if (ctx.free_pairs.compare_exchange_weak(head, fresh, std::memory_order_release,
                                             std::memory_order_acquire)) {
      return;
    }
  }
}

child_pair* free_pair_pop(tree_context& ctx) noexcept {
  std::uint64_t head = ctx.free_pairs.load(std::memory_order_acquire);
  for (;;) {
    child_pair* top = ptr_of(head);
    if (top == nullptr) return nullptr;
    child_pair* next = top->next_free.load(std::memory_order_relaxed);
    const std::uint64_t fresh = pack_tagged(next, tag_of(head) + 1);
    if (ctx.free_pairs.compare_exchange_weak(head, fresh, std::memory_order_acquire,
                                             std::memory_order_acquire)) {
      return top;
    }
  }
}

std::size_t free_pair_count(const tree_context& ctx) noexcept {
  std::size_t n = 0;
  for (child_pair* p = ptr_of(ctx.free_pairs.load(std::memory_order_acquire));
       p != nullptr; p = p->next_free.load(std::memory_order_relaxed)) {
    ++n;
  }
  return n;
}

int node::arrive(std::uint32_t n) noexcept {
  assert(n >= 1 && "arrive posts at least one surplus unit");
  visit();
  tree_context* ctx = context();
  stat_add(ctx->stats, &tree_stats::arrives);
  int hops = 1;
  int undo = 0;
  // Units still to post at this node. The single-unit protocol (n == 1) is
  // the original SNZI arrive; the batched generalization posts all remaining
  // units in one CAS whenever it owns the transition (the h >= 2 fast path,
  // or the 1/2 -> n commit when we installed the intermediate state). The
  // only way a batch is split is a helper committing our 1/2 -> 1 first —
  // that accounts exactly one of our units, so we shrink `remaining` and
  // continue; the helper's parent arrival then stands in for ours (undo).
  std::uint32_t remaining = n;
  while (remaining > 0) {
    std::uint64_t x = cv_.load(std::memory_order_acquire);
    const std::uint32_t h = half_of(x);
    const std::uint32_t v = ver_of(x);
    if (h >= 2) {
      // Surplus already positive: a plain increment, no propagation.
      if (cv_.compare_exchange_strong(x, pack(h + 2 * remaining, v),
                                      std::memory_order_seq_cst,
                                      std::memory_order_acquire)) {
        remaining = 0;
      } else {
        stat_add(ctx->stats, &tree_stats::cas_failures);
      }
      continue;
    }
    bool installer = false;
    if (h == 0) {
      // Begin a 0 -> positive transition by installing the intermediate 1/2.
      if (!cv_.compare_exchange_strong(x, pack(1, v + 1), std::memory_order_seq_cst,
                                       std::memory_order_acquire)) {
        stat_add(ctx->stats, &tree_stats::cas_failures);
        continue;
      }
      installer = true;
      x = pack(1, v + 1);
    }
    // Here half_of(x) == 1: either we installed 1/2 just now (installer) or
    // we read another thread's in-flight transition (helper). Either way,
    // make sure the parent has heard about this node's surplus before
    // committing 1/2 -> positive (SNZI invariant 1). The installer commits
    // ALL its remaining units at once; a helper commits the installer's
    // single unit exactly as in the original protocol, then loops to post
    // its own units on the now-positive word.
    hops += arrive_parent();
    std::uint64_t expect = x;
    const std::uint32_t target = installer ? 2 * remaining : 2;
    if (cv_.compare_exchange_strong(expect, pack(target, ver_of(x)),
                                    std::memory_order_seq_cst,
                                    std::memory_order_acquire)) {
      if (installer) remaining = 0;
    } else {
      // Someone else committed (or the state moved on): our parent arrival
      // is superfluous and must be undone after we finish. When we were the
      // installer, the helper's commit made the surplus exactly 1 — one of
      // our units is accounted; the rest go through the h >= 2 path.
      ++undo;
      if (installer) --remaining;
    }
  }
  while (undo-- > 0) {
    stat_add(ctx->stats, &tree_stats::undo_departs);
    depart_parent();
  }
  return hops;
}

bool node::depart() noexcept {
  visit();
  tree_context* ctx = context();
  // The reclaim flag is read here, before the decrement, because the
  // counter that holds *ctx may not outlive the decrement. Once this
  // depart's unit is gone from the root, another thread's depart can zero
  // the root; the counter is then released, destroyed, and its cell can be
  // rebuilt by the next acquire. So a depart that does not zero the root
  // may touch nothing of the counter after its last successful CAS. With
  // reclaim off (faa, snzi:<d>, the default dyn) it touches nothing: below
  // the CAS are only depart_parent(), whose own CAS is that last one, and
  // returns. With reclaim on, retire() still runs after depart_parent(),
  // and that window is open: a late retire() can act on a pair whose
  // counter was already released.
  const bool reclaim = ctx->reclaim;
  stat_add(ctx->stats, &tree_stats::departs);
  std::uint64_t x = cv_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t h = half_of(x);
    const std::uint32_t v = ver_of(x);
    assert(h >= 2 && "depart on a node without surplus (invalid execution)");
    if (cv_.compare_exchange_strong(x, pack(h - 2, v), std::memory_order_seq_cst,
                                    std::memory_order_acquire)) {
      if (h == 2) {
        // Phase change: this node's surplus returned to zero. The parent
        // still holds this node's unit, so the counter lives until
        // depart_parent() has decremented it.
        const bool zero = depart_parent();
        if (reclaim) retire();
        return zero;
      }
      return false;
    }
    stat_add(ctx->stats, &tree_stats::cas_failures);
  }
}

int node::arrive_parent() noexcept {
  node* p = parent();
  return p != nullptr ? p->arrive() : context()->root->arrive();
}

bool node::depart_parent() noexcept {
  node* p = parent();
  return p != nullptr ? p->depart() : context()->root->depart();
}

std::pair<node*, node*> node::grow(std::uint64_t threshold) noexcept {
  tree_context* ctx = context();
  stat_add(ctx->stats, &tree_stats::grow_calls);
  // Flip the coin BEFORE reading the children pointer that determines the
  // return value (section 2: an adversary blind to local coin flips can
  // force at most `threshold` childless returns in expectation).
  const bool heads =
      threshold == 1 || (threshold != 0 && thread_rng().below(threshold) == 0);
  if (heads && children_.load(std::memory_order_acquire) == nullptr) {
    child_pair* pair = free_pair_pop(*ctx);
    const bool reused = pair != nullptr;
    if (pair == nullptr) {
      pair = pool_new<child_pair>(*ctx->pairs);
      ctx->pair_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    pair->left.init(this, pair, ctx);
    pair->right.init(this, pair, ctx);
    pair->retired.store(0, std::memory_order_relaxed);
    child_pair* expect = nullptr;
    if (children_.compare_exchange_strong(expect, pair, std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
      stat_add(ctx->stats,
               reused ? &tree_stats::grow_reuses : &tree_stats::grow_allocs);
    } else {
      // Lost the race: return the unused pair to the pool.
      stat_add(ctx->stats, &tree_stats::grow_lost_races);
      free_pair_push(*ctx, pair);
    }
  }
  child_pair* kids = children_.load(std::memory_order_acquire);
  if (kids == nullptr) {
    stat_add(ctx->stats, &tree_stats::grow_childless);
    return {this, this};
  }
  return {&kids->left, &kids->right};
}

void node::retire() noexcept {
  child_pair* pair = self_pair_.load(std::memory_order_relaxed);
  if (pair == nullptr) return;  // the base node is never recycled
  tree_context* ctx = context();
  stat_add(ctx->stats, &tree_stats::retires);
  if (pair->retired.fetch_add(1, std::memory_order_acq_rel) + 1 == 2) {
    // Both siblings drained. With grow threshold 1 the paper proves
    // (Lemma 4.6 / appendix B) that no live handle can reach this pair or
    // its parent's grow path again, so unlink and recycle.
    node* p = parent();
    assert(p != nullptr && "pair members always have a node parent");
    child_pair* expect = pair;
    if (p->children_.compare_exchange_strong(expect, nullptr,
                                             std::memory_order_seq_cst,
                                             std::memory_order_acquire)) {
      stat_add(ctx->stats, &tree_stats::pair_recycles);
      free_pair_push(*ctx, pair);
    }
  }
}

}  // namespace spdag::snzi
