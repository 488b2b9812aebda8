#pragma once
// slab_cache / slab_pool<T>: the pooled hot-path allocator.
//
// Three layers, fastest first:
//
//   1. Per-worker magazines. Each thread (keyed by mem::thread_slot(), one
//      live owner per slot) has a small cache of free cells inside the pool.
//      Steady-state allocate/deallocate is an uncontended array push/pop on
//      a line only the owner touches — zero CASes, zero malloc. Magazines
//      are sized by OBJECT GEOMETRY, not a fixed cell count: each one
//      targets default_magazine_bytes of cell storage, clamped to
//      [mag_cap_min, mag_cap_max] cells, with refill/flush batch = cap/2 —
//      so a pool of 16-byte waiter records runs deep magazines while a pool
//      of 512-byte states runs shallow ones, for the same cache footprint.
//   2. A lock-free global recycle list (a Treiber stack whose head carries
//      a monotone tag against ABA). Magazines refill from it in
//      batches when empty and flush half their cells to it when full; it is
//      what makes cross-worker frees cheap — consumer B freeing a future
//      state worker A allocated just fills B's magazine, and the overflow
//      migrates back through this list.
//   3. Block-allocated slabs. Only when the global list is dry does a
//      refill carve fresh cells from the current slab, growing a new slab
//      from the upstream allocator when exhausted (the only path that ever
//      calls aligned_alloc, counted in stats().slab_growths). Slabs leave
//      through one release routine fed by two drains, both governed by the
//      epoch protocol (src/mem/epoch.hpp): trim() at quiescence frees
//      fully-free slabs immediately (no pinned readers to wait for), and
//      trim_live() under live traffic RETIRES them into epoch limbo, where
//      they stay mapped until two epoch advances prove no pinned reader — a
//      racing recycle-list pop, a stale SNZI-pair or out-set-node
//      dereference on a pinned worker — can still reach a cell inside
//      them. The pool's own stale reads (pop_global walking links of cells
//      another thread may pop concurrently) pin around the pop, so they are
//      covered by the same argument.
//
// Cell layout: every cell carries a small pool-private header *before* the
// object — a free-list link (atomic, never aliased by object data, so the
// Treiber pops are race-free under TSan) and a stamp word recording the slot
// of the last allocator (0 = never allocated). The stamp gives exact
// recycle and cross-worker-free counts for one relaxed load per operation.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mem/pool.hpp"
#include "mem/thread_slot.hpp"
#include "util/cache_aligned.hpp"

namespace spdag {

class slab_cache : public object_pool {
 public:
  static constexpr std::size_t default_slab_bytes = 1 << 16;
  // Per-magazine cell-storage budget (stride bytes, headers included) the
  // geometry-derived capacity targets, and the hard clamp on that capacity.
  // The clamp floor wins over the budget for very large cells (a magazine
  // below ~8 cells flushes so often the global list becomes the hot path).
  static constexpr std::size_t default_magazine_bytes = 4096;
  static constexpr std::uint32_t mag_cap_min = 8;
  static constexpr std::uint32_t mag_cap_max = 128;

  // `slab_bytes` is the upstream allocation unit (rounded up to hold at
  // least one cell); `magazine_bytes` the per-magazine storage budget
  // (0 = default_magazine_bytes). Throws std::invalid_argument on a zero
  // object size.
  slab_cache(std::string name, std::size_t object_bytes,
             std::size_t object_align,
             std::size_t slab_bytes = default_slab_bytes,
             std::size_t magazine_bytes = 0);
  ~slab_cache() override;

  void* allocate() override;
  void deallocate(void* p) noexcept override;
  pool_stats stats() const override;
  std::size_t trim() override;
  std::size_t trim_live() override;

  std::size_t cell_stride() const noexcept { return stride_; }
  std::size_t slab_bytes() const noexcept { return slab_bytes_; }
  std::size_t slab_count() const;
  // Storage slots per magazine: the geometry-derived, clamped capacity.
  std::uint32_t magazine_slots() const noexcept { return mag_slots_; }

 private:
  // One worker's cell cache, allocated at mag_slots_ trailing item slots.
  // Only the slot's owner thread touches items/count in normal operation;
  // count is a single-writer relaxed atomic so stats() can read it from any
  // thread, and trim() (quiescent-only, so ordered against every owner
  // access through the scheduler's park/join handshakes) may rewrite it.
  struct alignas(cache_line_size) magazine {
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> recycles{0};
    std::atomic<std::uint64_t> remote_frees{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> flushes{0};

    // Item storage lives directly behind the struct (cache-line aligned,
    // sized at creation for mag_slots_ entries).
    void** items() noexcept { return reinterpret_cast<void**>(this + 1); }
  };
  static magazine* magazine_create(std::uint32_t slots);
  static void magazine_destroy(magazine* m) noexcept;

  std::atomic<void*>* link_of(void* obj) const noexcept {
    return reinterpret_cast<std::atomic<void*>*>(static_cast<char*>(obj) -
                                                 hdr_space_);
  }
  static std::atomic<std::uint64_t>* stamp_of(void* obj) noexcept {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(
        static_cast<char*>(obj) - sizeof(std::uint64_t));
  }

  magazine& mag(int slot);
  void refill(magazine& m);              // postcondition: m.count >= 1
  void flush(magazine& m) noexcept;      // postcondition: m.count < slots
  void carve(void** out, std::uint32_t want, std::uint32_t& got);
  void* pop_global() noexcept;
  void push_global(void* first, void* last, std::uint32_t n) noexcept;
  static bool restamp(void* p, int slot) noexcept;
  // The shared half of trim() and trim_live(). `free_cells` are the cells
  // the caller drained; cells of slabs that stay go back on the recycle
  // list, and every slab whose carved cells are all in the set is freed
  // now (live == false, quiescent) or retired into epoch limbo (live ==
  // true; the cursor slab is spared). Caller holds grow_mu_. Returns the
  // slabs released or retired.
  std::size_t release_free_slabs(const std::vector<void*>& free_cells,
                                 bool live);
  // Epoch limbo callback: frees one retired slab (mem::epoch::retire's fn).
  static void reclaim_slab(void* self, void* slab) noexcept;

  std::size_t hdr_space_;   // bytes before the object: link + pad + stamp
  std::size_t stride_;      // full cell size, object_align-multiple
  std::size_t slab_bytes_;
  std::size_t slab_align_;
  std::size_t mag_bytes_;   // requested magazine budget (0 = default)
  std::uint32_t mag_slots_; // derived capacity per magazine

  // Recycle-list head, pack(cell, tag), on its own cache line: refill/flush
  // CASes on it must not invalidate the read-only geometry fields above.
  alignas(cache_line_size) std::atomic<std::uint64_t> global_head_{0};
  std::atomic<std::uint64_t> global_cells_{0};  // list length (gauge)
  std::atomic<magazine*> mags_[mem::max_thread_slots] = {};

  mutable std::mutex grow_mu_;
  std::vector<void*> slabs_;
  char* cursor_ = nullptr;
  char* slab_end_ = nullptr;

  // Cold-path / bypass tallies (magazine-cached ops count in the magazine).
  std::atomic<std::uint64_t> g_allocs_{0};
  std::atomic<std::uint64_t> g_frees_{0};
  std::atomic<std::uint64_t> g_recycles_{0};
  std::atomic<std::uint64_t> g_remote_frees_{0};
  std::atomic<std::uint64_t> carved_{0};
  std::atomic<std::uint64_t> slab_growths_{0};
  std::atomic<std::uint64_t> trims_{0};
  std::atomic<std::uint64_t> slabs_released_{0};
  std::atomic<std::uint64_t> cells_released_{0};
  // Epoch live-trim lifecycle: retired (parked in limbo) vs reclaimed
  // (actually freed, by reclaim_slab after the 2-epoch delay).
  std::atomic<std::uint64_t> slabs_retired_{0};
  std::atomic<std::uint64_t> slabs_reclaimed_{0};
  std::atomic<std::uint64_t> limbo_cells_{0};
};

// Typed convenience over slab_cache for callers that own their pool outright
// (tests, structures with a single cell type).
template <typename T>
class slab_pool final : public slab_cache {
 public:
  explicit slab_pool(std::string name = "slab",
                     std::size_t slab_bytes = default_slab_bytes,
                     std::size_t magazine_bytes = 0)
      : slab_cache(std::move(name), sizeof(T), alignof(T), slab_bytes,
                   magazine_bytes) {}

  template <typename... Args>
  T* create(Args&&... args) {
    return pool_new<T>(*this, std::forward<Args>(args)...);
  }
  void destroy(T* obj) noexcept { pool_delete(*this, obj); }
};

}  // namespace spdag
