#include "mem/registry.hpp"

#include <stdexcept>

#include "mem/epoch.hpp"
#include "mem/malloc_pool.hpp"
#include "mem/slab_pool.hpp"

namespace spdag {

object_pool& pool_registry::get(const std::string& name, std::size_t bytes,
                                std::size_t align) {
  // Alignment is part of the identity: a same-named, same-sized caller with
  // a stricter alignment must NOT receive under-aligned cells — and the
  // composed name must distinguish the two pools in stats rows.
  const std::string key =
      name + ":" + std::to_string(bytes) + ":a" + std::to_string(align);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& p : pools_) {
    if (p->name() == key) return *p;
  }
  pools_.push_back(create(key, bytes, align));
  return *pools_.back();
}

std::vector<pool_registry_row> pool_registry::rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<pool_registry_row> out;
  out.reserve(pools_.size());
  for (const auto& p : pools_) {
    out.push_back({p->name(), p->object_bytes(), p->stats()});
  }
  return out;
}

pool_stats pool_registry::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  pool_stats t;
  for (const auto& p : pools_) t += p->stats();
  return t;
}

std::size_t pool_registry::trim() {
  std::size_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& p : pools_) released += p->trim();
  }
  // At quiescence no OTHER thread is pinned, so both advances succeed and
  // whatever an earlier live trim parked in limbo becomes reclaimable. The
  // caller itself may hold a loop-scoped pin — it holds no stale pointers
  // here, so refreshing its own record between the advances keeps it from
  // being the laggard that blocks the second one.
  mem::epoch::try_advance();
  mem::epoch::refresh();
  mem::epoch::try_advance();
  released += mem::epoch::reclaim();
  return released;
}

std::size_t pool_registry::trim_live(std::size_t* reclaimed) {
  std::size_t retired = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& p : pools_) retired += p->trim_live();
  }
  // The caller holds no stale pointers at this boundary (trim_live's own
  // pins are scoped inside the drain); republish its record so a
  // loop-pinned caller never blocks the very advance it is driving.
  mem::epoch::refresh();
  mem::epoch::try_advance();
  const std::size_t freed = mem::epoch::reclaim();
  if (reclaimed != nullptr) *reclaimed = freed;
  return retired;
}

std::unique_ptr<object_pool> malloc_pool_registry::create(std::string name,
                                                          std::size_t bytes,
                                                          std::size_t align) {
  return std::make_unique<malloc_pool>(std::move(name), bytes, align);
}

std::string slab_pool_registry::spec() const {
  // Canonical echo: fields are positional, so a set magazine budget forces
  // the block field to be printed too (at its resolved default if unset).
  // Appends, not one operator+ chain — gcc 12 -Wrestrict (PR 105651).
  std::string s = "pool";
  if (slab_bytes_ != 0 || magazine_bytes_ != 0) {
    s += ':';
    s += std::to_string(slab_bytes_ == 0 ? slab_cache::default_slab_bytes
                                         : slab_bytes_);
  }
  if (magazine_bytes_ != 0) {
    s += ':';
    s += std::to_string(magazine_bytes_);
  }
  return s;
}

std::unique_ptr<object_pool> slab_pool_registry::create(std::string name,
                                                        std::size_t bytes,
                                                        std::size_t align) {
  return std::make_unique<slab_cache>(
      std::move(name), bytes, align,
      slab_bytes_ == 0 ? slab_cache::default_slab_bytes : slab_bytes_,
      magazine_bytes_);
}

namespace {

// Strict numeric field: all digits, within [lo, hi]. Anything else —
// empty, trailing garbage, overflow, negative — is invalid_argument.
std::size_t parse_bytes_field(const std::string& field, unsigned long long lo,
                              unsigned long long hi, const char* what,
                              const std::string& spec) {
  unsigned long long bytes = 0;
  if (!field.empty() &&
      field.find_first_not_of("0123456789") == std::string::npos) {
    try {
      bytes = std::stoull(field);
    } catch (const std::exception&) {
      bytes = 0;
    }
  }
  if (bytes < lo || bytes > hi) {
    // Built by append (not one operator+ chain): gcc 12's -Wrestrict trips
    // a false positive on long string concatenations (GCC PR 105651).
    std::string msg = "alloc pool ";
    msg += what;
    msg += " must be in [";
    msg += std::to_string(lo);
    msg += ", ";
    msg += std::to_string(hi);
    msg += "]: ";
    msg += spec;
    throw std::invalid_argument(msg);
  }
  return static_cast<std::size_t>(bytes);
}

}  // namespace

std::unique_ptr<pool_registry> make_pool_registry(const std::string& spec) {
  std::string s = spec;
  if (s.rfind("alloc:", 0) == 0) s = s.substr(6);
  if (s == "malloc") return std::make_unique<malloc_pool_registry>();
  if (s != "pool" && s.rfind("pool:", 0) != 0) {
    throw std::invalid_argument("unknown alloc spec: " + spec);
  }
  // pool[:block[:mag]] — split the tail on ':'.
  std::vector<std::string> fields;
  for (std::size_t at = 4; at < s.size();) {
    const std::size_t next = s.find(':', at + 1);
    fields.push_back(s.substr(at + 1, next == std::string::npos
                                          ? std::string::npos
                                          : next - at - 1));
    at = next;
  }
  if (fields.size() > 2) {
    throw std::invalid_argument("alloc pool spec has too many fields: " + spec);
  }
  // Block rails: a block must amortize its carve mutex trip over a useful
  // batch, and one pool's upstream unit stays below 16 MiB. Magazine rails:
  // the budget's derived CELL capacity is clamped to [8, 128] anyway, so
  // the rails just reject obvious nonsense.
  std::size_t slab_bytes = 0;
  std::size_t mag_bytes = 0;
  if (fields.size() >= 1) {
    slab_bytes = parse_bytes_field(fields[0], 4096, 1ULL << 24, "block", spec);
  }
  if (fields.size() == 2) {
    mag_bytes = parse_bytes_field(fields[1], 256, 1ULL << 20, "magazine", spec);
  }
  return std::make_unique<slab_pool_registry>(slab_bytes, mag_bytes);
}

pool_registry& default_pool_registry() {
  static slab_pool_registry registry;
  return registry;
}

}  // namespace spdag
