#pragma once
// object_bank<Base>: registry-pool construction for polymorphic runtime
// objects (dependency counters, out-sets).
//
// A factory creates one concrete type, whose geometry only its
// create_pooled() knows. The bank does two jobs for it: the first emplace<T>
// binds the registry pool for T's geometry (one registry lookup per bank,
// never one per object), and destroy() runs a Base*'s virtual destructor and
// hands the cell back to that pool. Recycling is the pool's own: a
// destroyed object's cell parks in the releasing thread's magazine
// (src/mem/slab_pool.hpp), the same single recycling layer every other
// runtime object uses. The bank keeps no free list and no record of its
// objects, so a trim can release their slabs like any other cells'.
//
// Homogeneity: a bank serves exactly one geometry. Every emplace must use a
// T of the size the first one bound (asserted). The registry must outlive
// the bank and every object the bank made.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>

#include "mem/registry.hpp"

namespace spdag {

template <typename Base>
class object_bank {
  static_assert(std::has_virtual_destructor_v<Base>,
                "destroy() deletes through Base*");

 public:
  // `name` keys the backing pool in the registry ("counter", "outset");
  // the concrete geometry is appended by pool_registry::get at first use.
  object_bank(pool_registry& registry, std::string name)
      : registry_(registry), name_(std::move(name)) {}

  object_bank(const object_bank&) = delete;
  object_bank& operator=(const object_bank&) = delete;

  // Constructs a T in a cell of the bound pool. Thread-safe.
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    static_assert(std::is_base_of_v<Base, T>,
                  "object_bank emplaces derived types only");
    object_pool* p = pool_.load(std::memory_order_acquire);
    if (p == nullptr) {
      // Racing binders get the same pool: the registry is get-or-create.
      p = &registry_.get(name_, sizeof(T), alignof(T));
      pool_.store(p, std::memory_order_release);
    }
    assert(p->object_bytes() == sizeof(T) &&
           "object_bank is single-geometry: one concrete type per bank");
    return pool_new<T>(*p, std::forward<Args>(args)...);
  }

  // Destroys an object emplace() made and returns its cell. Thread-safe.
  void destroy(Base* obj) noexcept {
    void* cell = dynamic_cast<void*>(obj);  // the most-derived object
    obj->~Base();
    pool_.load(std::memory_order_acquire)->deallocate(cell);
  }

  // Cells the bound pool ever carved; 0 before the first emplace.
  std::size_t carved() const {
    const object_pool* p = pool_.load(std::memory_order_acquire);
    return p != nullptr ? p->stats().carved : 0;
  }

 private:
  pool_registry& registry_;
  std::string name_;
  std::atomic<object_pool*> pool_{nullptr};
};

}  // namespace spdag
