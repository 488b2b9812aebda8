#pragma once
// Epoch-based reclamation: the one protocol behind every "stale read" in
// this runtime.
//
// Several structures here let a lagging thread dereference memory that was
// logically freed an instant ago — the slab pools' tagged-Treiber recycle
// list, SNZI pair reuse, out-set node recycling. Each used to carry its own
// "benign stale read" argument, and all of them shared one load-bearing
// assumption: freed cells stay MAPPED, because slabs were only returned to
// the OS at full quiescence (object_pool::trim()). That assumption is what
// this layer replaces with a stated, testable protocol, so slabs can be
// reclaimed while workers are live and a resident service can trim under
// sustained traffic.
//
// The protocol (classic 3-epoch EBR):
//   * A global epoch E only ever increments.
//   * A thread that may hold stale pointers into pool memory is PINNED: its
//     per-slot record (keyed by mem::thread_slot(), the same dense id the
//     slab magazines use) publishes the epoch it entered under.
//   * E advances from e to e+1 only when every pinned record has published
//     e — so a pinned thread lags the global epoch by at most one.
//   * Memory retired at epoch r is physically freed only once E >= r + 2.
//     A reader pinned when the retire happened holds the global at <= r+1,
//     and any still-pinned record must republish (refresh) before E can
//     move past it — and republishing is only legal at a point where the
//     thread holds no stale pointers. Two advances therefore prove every
//     reader that could have seen the retired memory has passed such a
//     point.
//
// Who pins:
//   * Scheduler workers pin for their whole work loop and refresh() at the
//     top of each iteration (no pointer survives an iteration boundary);
//     they unpin across parks so sleepers never stall reclamation.
//   * dag_service clients do not pin: they read no cell of the runtime's
//     pools, and the trims they run pin what they walk.
//   * Pool-internal: slab_cache pins around global-recycle-list pops (the
//     only place a non-worker client thread dereferences recycled cells).
//   * pin()/unpin() nest (per-thread depth); a thread without a slot pins
//     anonymously, which conservatively blocks advancement while it holds.
//
// advance/tick cadence: refresh() is two relaxed loads when nothing moved.
// tick() = refresh + (when limbo is non-empty, every 64th call) one
// try_advance() + reclaim() sweep; schedulers call it at their natural
// communication points (communicate() in private-deque, idle transitions in
// ws), so advancement needs no dedicated thread.
//
// Quiescent trim() is the protocol's degenerate case (no pinned reader to
// wait for, so it frees at once), not a second regime.

#include <cstddef>
#include <cstdint>

namespace spdag::mem::epoch {

// Enter a pinned region (reentrant: nested pins are counted, the outermost
// pair publishes/retracts the record). While pinned, recycled pool cells
// this thread can still reach are guaranteed mapped.
void pin() noexcept;
void unpin() noexcept;

// Republish the current global epoch on this thread's record. ONLY legal at
// a point where the thread holds no stale pool pointers (e.g. the top of a
// worker-loop iteration); that is exactly the proof obligation the 2-epoch
// delay cashes in. Two relaxed loads when the global epoch has not moved.
void refresh() noexcept;

// refresh() + occasionally (gated, only while limbo is non-empty) one
// advance/reclaim sweep. Call at scheduler communication points.
void tick() noexcept;

// Whether the calling thread currently holds a pin (tests/diagnostics).
bool pinned() noexcept;

// Current global epoch.
std::uint64_t current() noexcept;

// Attempt one advance. Fails (harmlessly) when another thread is scanning,
// when any pinned record lags the current epoch, or when an anonymous
// (slotless) pin is held. Also republishes the epoch-lag gauge.
bool try_advance() noexcept;

// Deferred destruction: fn(a, b) runs once the global epoch has advanced
// twice past the epoch current at the time of this call. The callback must
// be noexcept and must not itself call retire()/reclaim(), and the memory
// it frees must already be unreachable for any thread that pins after this
// call.
using reclaim_fn = void (*)(void* a, void* b) noexcept;
void retire(reclaim_fn fn, void* a, void* b) noexcept;

// Run every limbo callback whose retire epoch is >= 2 behind the current
// global epoch. Returns how many ran. Any thread; serialized internally.
std::size_t reclaim() noexcept;

// Teardown flush: run every limbo callback whose `a` matches, regardless of
// epoch. Quiescent-only with respect to that owner's readers — pool
// destructors call this first, under the pool's own lifetime contract.
std::size_t flush_owner(void* a) noexcept;

// Limbo entries not yet reclaimed / how far the oldest pinned record lags
// the global epoch (0 when nothing is pinned). Diagnostics; exact only at
// quiescence.
std::size_t limbo_size() noexcept;
std::uint64_t lag() noexcept;

// RAII pin for scoped use (pool internals, tests).
class pin_guard {
 public:
  pin_guard() noexcept { pin(); }
  ~pin_guard() { unpin(); }
  pin_guard(const pin_guard&) = delete;
  pin_guard& operator=(const pin_guard&) = delete;
};

}  // namespace spdag::mem::epoch
