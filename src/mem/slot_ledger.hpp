#pragma once
// slot_ledger<Row>: monotone tallies kept per thread slot and summed on read.
//
// Row i belongs to the thread holding mem::thread_slot() i, which writes it
// with single-writer stores (util/single_writer.hpp): no locked
// read-modify-write, and no cache line shared with another writer. The last
// row is shared by threads without a slot, which use fetch_add. Padding
// keeps every row on cache lines of its own. A read sums every row, so it
// costs O(max_thread_slots) and belongs on snapshot paths, not hot ones.
//
// Row is a struct of std::atomic<std::uint64_t> fields that value-initialize
// to zero (the engine ledger's engine_stats, the out-set factory's totals).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "mem/thread_slot.hpp"
#include "util/cache_aligned.hpp"
#include "util/single_writer.hpp"

namespace spdag {

template <typename Row>
class slot_ledger {
 public:
  using field = std::atomic<std::uint64_t> Row::*;

  slot_ledger() : rows_(std::make_unique<padded<Row>[]>(row_count)) {}

  // Adds d to field f of the calling thread's row. `order` is the store's
  // ordering (see bump()).
  void add(field f, std::uint64_t d = 1,
           std::memory_order order = std::memory_order_relaxed) noexcept {
    add_at(mem::thread_slot(), f, d, order);
  }

  // Same, for a slot the caller already looked up (several fields at once).
  void add_at(int slot, field f, std::uint64_t d,
              std::memory_order order = std::memory_order_relaxed) noexcept {
    if (slot >= 0) {
      bump(rows_[static_cast<std::size_t>(slot)].value.*f, d, order);
    } else {
      (rows_[overflow_row].value.*f).fetch_add(d, order);
    }
  }

  // Field f summed over every row.
  std::uint64_t sum(field f, std::memory_order order =
                                 std::memory_order_relaxed) const noexcept {
    std::uint64_t s = 0;
    for (std::size_t r = 0; r < row_count; ++r) {
      s += (rows_[r].value.*f).load(order);
    }
    return s;
  }

 private:
  static constexpr std::size_t row_count = mem::max_thread_slots + 1;
  static constexpr std::size_t overflow_row = mem::max_thread_slots;

  std::unique_ptr<padded<Row>[]> rows_;
};

}  // namespace spdag
