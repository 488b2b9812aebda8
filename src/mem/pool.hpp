#pragma once
// object_pool: the hot-path allocation interface every runtime bookkeeping
// structure draws from (vertices, dec-pairs, future states, SNZI child
// pairs, out-set node groups, waiter records).
//
// The paper's O(1)-amortized-contention argument for the in-counter assumes
// the runtime's own bookkeeping is cheap; on churn-heavy dags (one future or
// finish block per iteration, millions of iterations) malloc — not the
// counter — becomes the scalability ceiling. An object_pool is a fixed-cell
// allocator for exactly one object geometry (size, alignment), selected per
// process through a pool_registry (src/mem/registry.hpp) so benchmarks can
// sweep `alloc:malloc` against `alloc:pool` and watch malloc leave the
// profile.
//
// Implementations:
//   * malloc_pool  (src/mem/malloc_pool.hpp) — passthrough to operator new;
//     the ablation baseline. Every allocation is an upstream trip.
//   * slab_cache   (src/mem/slab_pool.hpp) — per-worker magazine caches over
//     block-allocated slabs with a lock-free global recycle list; in steady
//     state neither allocate nor deallocate touches the upstream allocator.
//
// The pool hands out raw storage; construction/destruction is the caller's
// (use pool_new / pool_delete below). A deallocated-then-recycled cell may
// be dereferenced by a racing reader (SNZI pair reuse, out-set node
// recycling, the recycle list's own link walks); what makes that stale read
// safe is the epoch protocol in src/mem/epoch.hpp: readers hold an epoch
// pin, and a cell's storage is only unmapped — by trim() at quiescence or
// by trim_live() after the 2-epoch limbo delay — once no pinned reader can
// still reach it. That single protocol replaces the per-structure
// "stale-but-mapped arena" arguments the SNZI and out-set trees used to
// carry.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace spdag {

// Relaxed per-pool instrumentation. Counters are monotone over the pool's
// lifetime; under concurrency a snapshot may be a few operations skewed
// between fields (each field is internally consistent).
struct pool_stats {
  std::uint64_t allocs = 0;         // allocate() calls
  std::uint64_t frees = 0;          // deallocate() calls
  std::uint64_t recycles = 0;       // allocs served from recycled storage
  std::uint64_t remote_frees = 0;   // frees by a different worker than the
                                    // cell's last allocator (cross-worker)
  std::uint64_t carved = 0;         // cells carved fresh from slabs (monotone
                                    // over the pool's lifetime, NOT reduced
                                    // by trim())
  std::uint64_t slab_growths = 0;   // trips to the upstream allocator
  std::uint64_t magazine_refills = 0;
  std::uint64_t magazine_flushes = 0;
  std::uint64_t trims = 0;          // trim() and trim_live() calls
  std::uint64_t slabs_released = 0; // fully-free slabs trim() returned
                                    // upstream at once
  std::uint64_t cells_released = 0; // cells of slabs trim() released or
                                    // trim_live() retired (they leave the
                                    // carved population for good)
  std::uint64_t slabs_retired = 0;  // fully-free slabs trim_live() parked in
                                    // epoch limbo (epoch reclamation)
  std::uint64_t slabs_reclaimed = 0;// limbo slabs actually freed after the
                                    // 2-epoch safety delay

  // Gauges (snapshots, not counters) ---------------------------------------
  std::uint64_t magazine_cells = 0; // cells currently parked in magazines
  std::uint64_t recycle_cells = 0;  // cells currently on the global recycle
                                    // list
  std::uint64_t limbo_cells = 0;    // cells in retired-but-not-yet-reclaimed
                                    // slabs (epoch limbo)

  // Cells currently handed out (approximate under concurrency).
  std::uint64_t live() const noexcept {
    return allocs >= frees ? allocs - frees : 0;
  }
  // Cells the POOL itself is holding for reuse: magazine-resident plus the
  // global recycle list. This — not cached() — is what trim() empties; after
  // a quiescent trim it drops to the free cells left in slabs that live
  // allocations still pin (~0 when everything was freed).
  std::uint64_t retained() const noexcept {
    return magazine_cells + recycle_cells;
  }
  // Cells carved but not currently live: cached in magazines, the global
  // recycle list, or structure-local free lists built on top of the pool.
  // Cells whose slabs trim() released are subtracted (carved itself stays
  // monotone), so after a quiescent full trim cached() == retained().
  std::uint64_t cached() const noexcept {
    const std::uint64_t gone = cells_released + live();
    return carved >= gone ? carved - gone : 0;
  }

  pool_stats& operator+=(const pool_stats& o) noexcept {
    allocs += o.allocs;
    frees += o.frees;
    recycles += o.recycles;
    remote_frees += o.remote_frees;
    carved += o.carved;
    slab_growths += o.slab_growths;
    magazine_refills += o.magazine_refills;
    magazine_flushes += o.magazine_flushes;
    trims += o.trims;
    slabs_released += o.slabs_released;
    cells_released += o.cells_released;
    slabs_retired += o.slabs_retired;
    slabs_reclaimed += o.slabs_reclaimed;
    magazine_cells += o.magazine_cells;
    recycle_cells += o.recycle_cells;
    limbo_cells += o.limbo_cells;
    return *this;
  }
};

class object_pool {
 public:
  object_pool(std::string name, std::size_t object_bytes,
              std::size_t object_align)
      : name_(std::move(name)),
        object_bytes_(object_bytes),
        object_align_(object_align) {}

  virtual ~object_pool() = default;
  object_pool(const object_pool&) = delete;
  object_pool& operator=(const object_pool&) = delete;

  // Raw storage of the pool's cell geometry. Never null (throws bad_alloc).
  virtual void* allocate() = 0;

  // Returns a cell obtained from allocate(). The object must already be
  // destroyed; the storage may be handed to another worker immediately.
  virtual void deallocate(void* p) noexcept = 0;

  virtual pool_stats stats() const = 0;

  // Quiescent-only maintenance: flushes every per-worker magazine and the
  // recycle list back into the slabs and returns every FULLY-FREE slab to
  // the upstream allocator, returning how many slabs were released. The
  // caller must guarantee quiescence — no thread is inside allocate()/
  // deallocate() and none will be until trim returns (in the runtime:
  // between run()s, via dag_engine::trim_pools()). Live cells are legal and
  // simply pin their slab. Safety, in epoch terms (src/mem/epoch.hpp): at
  // quiescence no thread is pinned, so there is no reader the 2-epoch delay
  // would have to wait for — trim may skip limbo and free immediately. This
  // is the degenerate case of the protocol, not a separate argument.
  // Default: nothing pooled, nothing to release.
  virtual std::size_t trim() { return 0; }

  // Live-traffic maintenance, legal under concurrent allocate()/deallocate()
  // traffic. Drains the global recycle list, and every slab whose cells all
  // turned out to be free is RETIRED into epoch limbo rather than freed —
  // epoch::reclaim() frees it once two epoch advances prove no pinned
  // reader can still hold a stale pointer into it. Magazines are left
  // untouched (their cells are considered in use), so trim_live() is
  // strictly more conservative than a quiescent trim(). Returns the number
  // of slabs retired this call.
  virtual std::size_t trim_live() { return 0; }

  const std::string& name() const noexcept { return name_; }
  std::size_t object_bytes() const noexcept { return object_bytes_; }
  std::size_t object_align() const noexcept { return object_align_; }

 private:
  std::string name_;
  std::size_t object_bytes_;
  std::size_t object_align_;
};

// Typed construct/destroy sugar over the untyped cell interface.
template <typename T, typename... Args>
T* pool_new(object_pool& pool, Args&&... args) {
  void* p = pool.allocate();
  return ::new (p) T(std::forward<Args>(args)...);
}

template <typename T>
void pool_delete(object_pool& pool, T* obj) noexcept {
  obj->~T();
  pool.deallocate(obj);
}

}  // namespace spdag
