#pragma once
// Sp-dag vertex and the shared decrement-handle pair (paper section 3.1).
//
// A vertex is one fine-grained thread of control. Its fields mirror the
// paper's struct: a body, handles into its finish vertex's in-counter (one
// increment handle, a *pair* of decrement handles shared with the sibling),
// the finish vertex itself, and a dead flag. The first_dec test-and-set flag
// lives in the shared pair rather than the vertex so the two siblings
// claiming handles coordinate through one word: the first to claim takes
// t[0], which always points at least as high in the SNZI tree as t[1] —
// the ordering invariant Lemma 4.6's proof relies on.

#include <atomic>
#include <cstdint>

#include "counter/dep_counter.hpp"
#include "util/inline_function.hpp"

namespace spdag {

// Decrement-handle pair shared by the vertices a spawn creates.
// `owners` counts vertices that may still claim from this pair; the claimer
// that drops it to zero returns the pair to its slab pool.
//
// A spawn_batch of k children reuses the same structure as a GROUP: t[0] is
// still the single inherited (higher) handle, but t[1] is the batch token
// whose placement carries k-1 surplus units — the first claimer takes t[0]
// and every later claimer departs t[1] once. That only counts correctly when
// the first claimer deterministically takes slot 0, so grouped pairs pin the
// ordered claim policy even under the claim-order ablation (`grouped`).
struct dec_pair {
  token t[2] = {0, 0};
  // Slot taken by the first claimer, -1 while unclaimed. The default policy
  // always claims slot 0 (the higher handle); the claim-order ablation
  // randomizes the first claimer's choice (never for grouped pairs).
  std::atomic<std::int8_t> first_slot{-1};
  std::atomic<std::uint32_t> owners{0};
  // True for spawn_batch groups: t[1] is a multi-unit batch token and the
  // claim order MUST stay [t[0] first, then owners-1 departs of t[1]].
  bool grouped = false;

  void reset(token t0, token t1, std::uint32_t owner_count,
             bool grouped_claims = false) noexcept {
    t[0] = t0;
    t[1] = t1;
    first_slot.store(-1, std::memory_order_relaxed);
    owners.store(owner_count, std::memory_order_relaxed);
    grouped = grouped_claims;
  }
};

// Bodies are small closures stored inline; 64 bytes covers every body in the
// examples and benchmarks without heap allocation on the spawn path.
using vertex_body = inline_function<void(), 64>;

class vertex {
 public:
  vertex_body body;

  // This vertex's own dependency counter (the paper's query handle points at
  // it). Zero surplus <=> the vertex is ready to execute. Only vertices that
  // wait carry one: make()'s final vertex and chain()'s continuation. Every
  // other vertex is never a fin, so nothing arrives on it; it stays null,
  // which dag_engine::add() reads as ready (see dag_engine::new_vertex).
  dep_counter* counter = nullptr;

  // The vertex every path from here must pass through before the enclosing
  // computation completes; signal() decrements fin's counter.
  vertex* fin = nullptr;

  // Increment handle into fin's counter (token is counter-specific).
  token inc = 0;

  // Decrement handles into fin's counter, shared with the sibling.
  // Null when the engine's counters do not use tokens (fetch-and-add).
  dec_pair* dpair = nullptr;

  // Which side of the parent spawn this vertex is; steers the in-counter's
  // arrive placement (paper Figure 5, line 22).
  bool is_left = false;

  // Set by chain/spawn: the vertex transferred its obligation and must not
  // signal when its body returns.
  bool dead = false;

  // True when `inc` is SHARED with other vertices (spawn_batch hands one
  // arrive's handles to all k children; Lemma 4.3's handle uniqueness no
  // longer holds for them or their spawn/chain descendants on the same
  // handle). Shared handles must never be abandon()ed — two sharers retiring
  // the same never-used node would double-count its pair's retire and
  // recycle it under live handles. Propagates through chain (same token) and
  // spawn (the grown children may collide with a sharer's grow of the same
  // hint); a fresh finish counter's root handle resets it to false.
  bool shared_inc = false;

  // True for a vertex the engine did not allocate: a dag_service ticket
  // embeds one that launches its submission. Such a vertex has no fin, and
  // dag_engine::execute() lets go of it when its body returns: no signal,
  // no recycle, no further read (see there).
  bool external = false;
};

}  // namespace spdag
