#pragma once
// pool_registry: get-or-create directory of object_pools keyed by
// (name, cell size), selected by spec string through runtime_config —
// mirroring the in-counter/out-set factory pattern.
//
// Spec strings (accepted with or without the "alloc:" prefix):
//   "malloc"              every pool is a malloc_pool passthrough (baseline)
//   "pool"                slab pools, default block + magazine budget
//   "pool:<block>"        slab pools with the given upstream block size
//                         (bytes in [4096, 1<<24])
//   "pool:<block>:<mag>"  ... plus a per-magazine byte budget (bytes in
//                         [256, 1<<20]; the magazine CELL capacity derived
//                         from it is clamped to [8, 128], see slab_pool.hpp)
// Throws std::invalid_argument on anything else.
//
// One registry per runtime: the runtime constructs it first and destroys it
// last, so every structure above it (engine, counter factory, out-set
// factory) can cache `object_pool&` references for its lifetime. A
// process-wide default registry (slab pools) backs engines and futures
// created outside any runtime.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mem/pool.hpp"

namespace spdag {

// One row of a registry stats snapshot.
struct pool_registry_row {
  std::string name;          // composed key, e.g. "future_state:48:a8"
  std::size_t object_bytes;
  pool_stats stats;
};

class pool_registry {
 public:
  virtual ~pool_registry() = default;

  // Thread-safe get-or-create. Pools are keyed by name, cell size AND
  // alignment, so one logical name used at several geometries
  // (future_state<T> across Ts, out-set groups across fanouts) maps to one
  // pool per geometry. The reference stays valid until the registry dies.
  // Callers on hot paths should cache it (the lookup takes a mutex).
  object_pool& get(const std::string& name, std::size_t bytes,
                   std::size_t align);

  // Snapshot of every pool, creation order.
  std::vector<pool_registry_row> rows() const;

  // All pools summed — the headline bench stat.
  pool_stats totals() const;

  // Quiescent-only (see object_pool::trim): trims every pool, returning the
  // total number of slabs released upstream. The quiescence contract covers
  // EVERY engine and structure drawing from this registry — for a
  // runtime-owned registry that is its one engine between run()s
  // (dag_engine::trim_pools); for the process-wide default registry the
  // caller must know no engine sharing it is running. Also drives the epoch
  // machinery far enough (two advances + a reclaim, trivially successful at
  // quiescence) to flush any slabs an earlier trim_live() left in limbo;
  // those count toward the returned total.
  std::size_t trim();

  // Live-traffic trim (see object_pool::trim_live): legal under concurrent
  // traffic, retires fully-free slabs into epoch limbo and then drives one
  // advance + reclaim sweep. Returns the number of slabs retired this call;
  // `reclaimed`, when non-null, receives how many limbo slabs (from any
  // earlier retire on this process's epoch domain) were actually freed.
  std::size_t trim_live(std::size_t* reclaimed = nullptr);

  // The spec string this registry was built from ("malloc", "pool", ...).
  virtual std::string spec() const = 0;

 protected:
  virtual std::unique_ptr<object_pool> create(std::string name,
                                              std::size_t bytes,
                                              std::size_t align) = 0;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<object_pool>> pools_;
};

class malloc_pool_registry final : public pool_registry {
 public:
  std::string spec() const override { return "malloc"; }

 protected:
  std::unique_ptr<object_pool> create(std::string name, std::size_t bytes,
                                      std::size_t align) override;
};

class slab_pool_registry final : public pool_registry {
 public:
  // 0 for either byte knob = slab_cache's default.
  explicit slab_pool_registry(std::size_t slab_bytes = 0,
                              std::size_t magazine_bytes = 0) noexcept
      : slab_bytes_(slab_bytes), magazine_bytes_(magazine_bytes) {}
  std::string spec() const override;

 protected:
  std::unique_ptr<object_pool> create(std::string name, std::size_t bytes,
                                      std::size_t align) override;

 private:
  std::size_t slab_bytes_;
  std::size_t magazine_bytes_;
};

// Parses an alloc spec (see file comment).
std::unique_ptr<pool_registry> make_pool_registry(const std::string& spec);

// Process-wide slab registry used by engines, counters, and futures that
// were not handed an explicit registry.
pool_registry& default_pool_registry();

}  // namespace spdag
