// Deterministic unit tests for the epoch-based reclamation protocol
// (src/mem/epoch.hpp): pin nesting, the pinned-laggard advance block, the
// 2-epoch retire delay, exactly-once reclamation, and the owner flush.
//
// Everything here is single- or two-threaded with explicit handshakes — the
// adversarial multi-thread storms live in epoch_reclaim_test.cpp (stress
// lane).

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "mem/epoch.hpp"

namespace spdag {
namespace {

namespace ep = mem::epoch;

// Callback for retire(): bumps the atomic counter passed as `a`.
void bump(void* a, void* /*b*/) noexcept {
  static_cast<std::atomic<int>*>(a)->fetch_add(1, std::memory_order_relaxed);
}

// Settle the global state left by earlier tests in this binary: advance
// twice and sweep, so pre-existing limbo entries cannot leak into a test's
// reclaim() counts.
void settle() {
  ep::try_advance();
  ep::try_advance();
  ep::reclaim();
}

TEST(Epoch, PinsNestPerThread) {
  EXPECT_FALSE(ep::pinned());
  ep::pin();
  EXPECT_TRUE(ep::pinned());
  ep::pin();  // nested: counted, not republished
  ep::unpin();
  EXPECT_TRUE(ep::pinned()) << "inner unpin must not retract the outer pin";
  ep::unpin();
  EXPECT_FALSE(ep::pinned());
}

TEST(Epoch, RefreshAndTickAreNoOpsUnpinned) {
  // Legal (and harmless) from a thread that holds no pin — the scheduler
  // hooks rely on this after the park-path unpin.
  ep::refresh();
  ep::tick();
  EXPECT_FALSE(ep::pinned());
}

// The load-bearing safety property, made deterministic: a pinned thread
// that has not refreshed blocks the SECOND advance (it lags by at most
// one), and memory retired under it stays in limbo until the laggard
// republishes at a no-stale-pointers point.
TEST(Epoch, PinnedLaggardBlocksSecondAdvanceAndReclaim) {
  settle();

  std::atomic<int> stage{0};
  std::thread laggard([&] {
    ep::pin_guard pg;
    stage.store(1, std::memory_order_release);
    // Hold the pin, without refreshing, until the main thread has seen the
    // blocked advance.
    while (stage.load(std::memory_order_acquire) < 2) std::this_thread::yield();
    ep::refresh();  // the thread holds no stale pointers here
    stage.store(3, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 4) std::this_thread::yield();
  });
  while (stage.load(std::memory_order_acquire) < 1) std::this_thread::yield();

  std::atomic<int> freed{0};
  ep::retire(&bump, &freed, nullptr);
  const std::uint64_t e0 = ep::current();

  // The laggard published e0, so one advance is allowed...
  ASSERT_TRUE(ep::try_advance());
  EXPECT_EQ(ep::current(), e0 + 1);
  // ...but not a second: the laggard still publishes e0.
  EXPECT_FALSE(ep::try_advance());
  EXPECT_EQ(ep::current(), e0 + 1);
  EXPECT_EQ(ep::lag(), 1u);
  EXPECT_EQ(ep::reclaim(), 0u) << "one advance is not proof of passage";
  EXPECT_EQ(freed.load(), 0);

  // Let the laggard refresh; the advance (and hence the reclaim) unblocks.
  stage.store(2, std::memory_order_release);
  while (stage.load(std::memory_order_acquire) < 3) std::this_thread::yield();
  ASSERT_TRUE(ep::try_advance());
  EXPECT_EQ(ep::current(), e0 + 2);
  EXPECT_EQ(ep::reclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);

  stage.store(4, std::memory_order_release);
  laggard.join();
}

TEST(Epoch, RetireFreesAfterTwoAdvancesExactlyOnce) {
  settle();

  std::atomic<int> freed{0};
  ep::retire(&bump, &freed, nullptr);
  EXPECT_GE(ep::limbo_size(), 1u);

  EXPECT_EQ(ep::reclaim(), 0u) << "same epoch: must stay in limbo";
  ASSERT_TRUE(ep::try_advance());
  EXPECT_EQ(ep::reclaim(), 0u) << "one epoch behind: must stay in limbo";
  EXPECT_EQ(freed.load(), 0);

  ASSERT_TRUE(ep::try_advance());
  EXPECT_EQ(ep::reclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);

  // Exactly once: further sweeps and advances find nothing.
  EXPECT_EQ(ep::reclaim(), 0u);
  ep::try_advance();
  EXPECT_EQ(ep::reclaim(), 0u);
  EXPECT_EQ(freed.load(), 1);
}

TEST(Epoch, FlushOwnerRunsMatchingEntriesRegardlessOfEpoch) {
  settle();

  std::atomic<int> mine{0};
  std::atomic<int> other{0};
  ep::retire(&bump, &mine, nullptr);
  ep::retire(&bump, &mine, nullptr);
  ep::retire(&bump, &other, nullptr);

  // No advances at all — flush_owner is the teardown path and ignores the
  // 2-epoch delay (legal only under the owner's own lifetime contract).
  EXPECT_EQ(ep::flush_owner(&mine), 2u);
  EXPECT_EQ(mine.load(), 2);
  EXPECT_EQ(other.load(), 0) << "foreign entries must stay in limbo";

  // The foreign entry still follows the normal protocol.
  ep::try_advance();
  ep::try_advance();
  EXPECT_EQ(ep::reclaim(), 1u);
  EXPECT_EQ(other.load(), 1);

  // And the flushed entries never run twice.
  EXPECT_EQ(mine.load(), 2);
}

TEST(Epoch, AdvanceIsMonotoneAcrossThreads) {
  settle();
  const std::uint64_t e0 = ep::current();
  std::thread t([] {
    ep::pin_guard pg;
    ep::refresh();
  });
  t.join();
  ep::try_advance();
  EXPECT_GE(ep::current(), e0);
  EXPECT_EQ(ep::lag(), 0u) << "a joined thread must not register as pinned";
}

}  // namespace
}  // namespace spdag
