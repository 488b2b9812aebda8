#pragma once
// Hardware topology helpers: core counts and best-effort thread pinning.
//
// The paper's artifact uses hwloc to pin workers; inside this reproduction
// pinning is best-effort (pthread affinity where available, no-op elsewhere)
// because container environments often restrict affinity masks.

#include <cstddef>

namespace spdag {

// Number of hardware threads visible to this process (>= 1).
std::size_t hardware_core_count() noexcept;

// Pins the calling thread to core `core_index` modulo the core count.
// Returns that core, or std::size_t(-1) when pinning fails or is
// unsupported.
std::size_t pin_current_thread(std::size_t core_index) noexcept;

}  // namespace spdag
