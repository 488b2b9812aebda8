#pragma once
// malloc_pool: the `alloc:malloc` ablation baseline — every cell is one trip
// to operator new/delete. Exists so benchmarks can quantify exactly what the
// slab pools buy: under this pool stats().slab_growths climbs one-for-one
// with allocs (every allocation is upstream), where slab_cache plateaus
// after warm-up. It retains nothing, so trim() stays the base-class no-op
// (frees already went straight back upstream) and retained() reads zero —
// malloc is "always trimmed".

#include <atomic>
#include <cstdint>
#include <new>
#include <string>

#include "mem/pool.hpp"

namespace spdag {

class malloc_pool final : public object_pool {
 public:
  malloc_pool(std::string name, std::size_t object_bytes,
              std::size_t object_align)
      : object_pool(std::move(name), object_bytes, object_align) {}

  void* allocate() override {
    allocs_.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(object_bytes(), std::align_val_t{align_for()});
  }

  void deallocate(void* p) noexcept override {
    frees_.fetch_add(1, std::memory_order_relaxed);
    ::operator delete(p, std::align_val_t{align_for()});
  }

  pool_stats stats() const override {
    pool_stats s;
    s.allocs = allocs_.load(std::memory_order_relaxed);
    s.frees = frees_.load(std::memory_order_relaxed);
    s.carved = s.allocs;        // every cell is fresh
    s.slab_growths = s.allocs;  // every allocation is an upstream trip
    return s;
  }

 private:
  std::size_t align_for() const noexcept {
    return object_align() < alignof(std::max_align_t)
               ? alignof(std::max_align_t)
               : object_align();
  }

  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
};

}  // namespace spdag
