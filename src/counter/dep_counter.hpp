#pragma once
// dep_counter: the dependency-counter abstraction the sp-dag runtime is
// parameterized over (paper section 5 compares three implementations of it).
//
// Interface shape follows the paper's Incounter module (Figure 5):
//   * arrive(inc_hint, from_left) performs one increment starting at the
//     caller's increment handle and returns a fresh decrement token plus two
//     increment handles for the two vertices a spawn creates;
//   * depart(token) performs one decrement and reports whether the counter
//     reached zero (readiness detection — the paper's implementation note
//     replaces is_zero polling with this return value);
//   * tokens are opaque uintptr_t so implementations without placement
//     structure (fetch-and-add) pay nothing for them.

#include <cstdint>

namespace spdag {

using token = std::uintptr_t;

struct arrive_result {
  token dec;        // decrement token matching this arrive
  token inc_left;   // increment handle for the left spawned vertex
  token inc_right;  // increment handle for the right spawned vertex
};

class dep_counter {
 public:
  virtual ~dep_counter() = default;

  // One increment. `inc_hint` is the spawning vertex's increment handle
  // (ignored by hint-free implementations); `from_left` tells handle-placing
  // implementations which side of the parent the spawning vertex is.
  virtual arrive_result arrive(token inc_hint, bool from_left) = 0;

  // Batched increment: exactly-once equivalent to k consecutive arrives from
  // the same handle (k >= 1), but paying one counter operation. The returned
  // result's `dec` token supports k independent depart() calls (the surplus
  // lands on a single placement), and the two increment handles are SHARED
  // by however many vertices the batch creates — callers that reclaim
  // handles (abandon) must therefore skip reclamation for batch-shared
  // handles; the dag layer tracks this with vertex::shared_inc.
  //
  // The default loops k single arrives and returns the LAST result, which is
  // exactly-once correct only for implementations whose depart ignores the
  // token; every token-placing implementation in this repo overrides it with
  // a genuinely single-operation batch.
  virtual arrive_result add(token inc_hint, bool from_left, std::uint32_t k) {
    arrive_result r{0, 0, 0};
    for (std::uint32_t i = 0; i < k; ++i) r = arrive(inc_hint, from_left);
    return r;
  }

  // One decrement with a token from a prior arrive (or root_token for the
  // initial obligation). Returns true iff the counter reached zero.
  virtual bool depart(token dec) = 0;

  // Non-linearizable snapshot; true iff surplus is zero right now.
  virtual bool is_zero() const = 0;

  // Token representing the counter's initial obligation: usable both as the
  // first increment hint and as the decrement token for initial surplus 1.
  virtual token root_token() = 0;

  // False for implementations whose depart ignores the token (fetch-and-add);
  // lets the dag skip decrement-handle bookkeeping for a fair baseline.
  virtual bool uses_tokens() const = 0;

  // Notification that `inc` (a handle returned by arrive/root_token) will
  // never be used for an increment: its owner completed without spawning.
  // Lets space-reclaiming implementations retire the handle's node
  // (Theorem B.3). Default: ignore.
  virtual void abandon(token /*inc*/) {}

  // Non-concurrent (re)initialization with surplus n, which the factory
  // applies to every counter it hands out. Token-based counters support n
  // in {0, 1}.
  virtual void reset(std::uint32_t n) = 0;
};

}  // namespace spdag
