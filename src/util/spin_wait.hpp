#pragma once
// Spin briefly, then block precisely. Every idle thread in the runtime
// (workers, run()'s caller, blocked submitters and ticket waiters) first
// polls its condition with spin_until for spin_bound. A wait that ends
// within the bound never pays a sleep, and one that does not costs at most
// spin_bound of CPU before the thread blocks.
//
// wait_while() adds the blocking half on a 32-bit futex word (C++20
// atomic::wait) that the waker changes and then notifies: run()'s caller
// and ticket waiters use it, and an idle worker blocks on its own word the
// same way (scheduler_base::park()). No such wait has a timeout, so each
// caller argues that its waker cannot miss a sleeper; the argument for
// workers is in scheduler_base.cpp. The service's blocked submitters block
// on a condition variable after the spin instead: admission waits on a
// predicate over three atomics.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/backoff.hpp"

namespace spdag {

// How long a waiter spins before it blocks: about two futex wake-up round
// trips on a 4-core Xeon.
inline constexpr std::chrono::microseconds spin_bound{50};

// Calls ready() until it returns true or spin_bound has passed, with one
// pause between calls; returns whether ready() returned true. The clock is
// read once per batch of calls, because a read costs more than a pause.
template <typename Ready>
bool spin_until(Ready&& ready) {
  using clock = std::chrono::steady_clock;
  constexpr int calls_per_clock_read = 64;
  const clock::time_point deadline = clock::now() + spin_bound;
  for (;;) {
    for (int i = 0; i < calls_per_clock_read; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (clock::now() >= deadline) return ready();
  }
}

// Returns once `word` no longer holds `old`: spins, then blocks. The
// seq_cst load pairs with wake()'s seq_cst store. atomic::wait announces
// the sleeper with a seq_cst RMW before its last load of the word, and
// notify reads that announcement, so a wake() either stores before that
// load (the waiter does not block) or sees the sleeper (it notifies).
inline void wait_while(std::atomic<std::uint32_t>& word, std::uint32_t old) {
  const auto changed = [&] {
    return word.load(std::memory_order_acquire) != old;
  };
  if (!spin_until(changed)) word.wait(old, std::memory_order_seq_cst);
}

// Stores `value` into `word` and wakes every thread blocked on it.
inline void wake(std::atomic<std::uint32_t>& word, std::uint32_t value) {
  word.store(value, std::memory_order_seq_cst);
  word.notify_all();
}

}  // namespace spdag
