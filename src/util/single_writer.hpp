#pragma once
// Single-writer counters.
//
// A counter that only one thread ever writes (a slab magazine, a trace
// track, an engine ledger row: each keyed by its owner's mem::thread_slot())
// needs no locked read-modify-write. A plain load + store is exact, because
// no other writer can interleave. Keeping the word atomic makes
// cross-thread reads (stats snapshots) race-free.

#include <atomic>
#include <cstdint>

namespace spdag {

// Adds `d` to a counter that only the calling thread writes. `order` is the
// store's ordering: relaxed for pure tallies, release when a reader's
// acquire load must also see what the writer did before the add.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t d = 1,
                 std::memory_order order = std::memory_order_relaxed) noexcept {
  c.store(c.load(std::memory_order_relaxed) + d, order);
}

}  // namespace spdag
