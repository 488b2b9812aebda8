#include "util/topology.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace spdag {

std::size_t hardware_core_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::size_t pin_current_thread(std::size_t core_index) noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core_index % hardware_core_count(), &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    return core_index % hardware_core_count();
  }
#else
  (void)core_index;
#endif
  return static_cast<std::size_t>(-1);
}

}  // namespace spdag
