// Tests for the latency histogram and the timing decorator factory.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "dag/serial_executor.hpp"
#include "harness/workloads.hpp"
#include "incounter/timed_factory.hpp"
#include "sched/runtime.hpp"
#include "util/histogram.hpp"

namespace spdag {
namespace {

TEST(Histogram, EmptyIsZero) {
  latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

TEST(Histogram, SingleSampleLandsInRightBin) {
  latency_histogram h;
  h.record(100);  // octave (64, 128] in eighths of 8: (96, 104] -> 104
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile_ns(0.5), 104u);
  EXPECT_EQ(h.percentile_ns(1.0), 104u);
}

TEST(Histogram, SmallValuesAreExact) {
  for (std::uint64_t v = 1; v <= 16; ++v) {
    latency_histogram h;
    h.record(v);
    EXPECT_EQ(h.percentile_ns(1.0), v);
  }
}

TEST(Histogram, BinEdgesSplitEachOctaveInEight) {
  EXPECT_EQ(latency_histogram::bin_upper_ns(15), 16u);
  EXPECT_EQ(latency_histogram::bin_upper_ns(16), 18u);
  EXPECT_EQ(latency_histogram::bin_upper_ns(23), 32u);
  EXPECT_EQ(latency_histogram::bin_upper_ns(24), 36u);
  EXPECT_EQ(latency_histogram::bin_upper_ns(31), 64u);
  EXPECT_EQ(latency_histogram::bin_upper_ns(32), 72u);
  // 16.78 ms (2^24 ns) and the next edge, 2^24 + 2^21.
  latency_histogram h;
  h.record(1ULL << 24);
  EXPECT_EQ(h.percentile_ns(1.0), 1ULL << 24);
  h.reset();
  h.record((1ULL << 24) + 1);
  EXPECT_EQ(h.percentile_ns(1.0), (1ULL << 24) + (1ULL << 21));
}

TEST(Histogram, SamplesTwentyPercentApartLandInDifferentBins) {
  // Each bin is at most 1/8 of its lower edge wide, so no bin holds two
  // values 20% apart: the percentile tells 1.0 ms from 1.2 ms.
  for (std::uint64_t v = 5; v < (1ULL << 40); v += v / 3 + 1) {
    latency_histogram a, b;
    a.record(v);
    b.record(v + v / 5);
    EXPECT_LT(a.percentile_ns(1.0), b.percentile_ns(1.0)) << v;
    EXPECT_LE(a.percentile_ns(1.0), v + v / 8 + 1) << "over 12.5% at " << v;
  }
}

TEST(Histogram, PowersOfTwoAreInclusiveUpperBounds) {
  latency_histogram h;
  h.record(64);
  EXPECT_EQ(h.percentile_ns(1.0), 64u);
}

TEST(Histogram, PercentilesAreMonotone) {
  latency_histogram h;
  for (std::uint64_t v : {1u, 2u, 4u, 50u, 100u, 1000u, 100000u}) h.record(v);
  std::uint64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::uint64_t p = h.percentile_ns(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

TEST(Histogram, TailSeparatesFromMode) {
  latency_histogram h;
  for (int i = 0; i < 990; ++i) h.record(50);
  for (int i = 0; i < 10; ++i) h.record(100000);
  EXPECT_EQ(h.percentile_ns(0.5), 52u);        // (48, 52]
  EXPECT_EQ(h.percentile_ns(0.999), 106496u);  // (98304, 106496]
}

TEST(Histogram, MergeAddsCounts) {
  latency_histogram a, b;
  a.record(10);
  b.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  latency_histogram h;
  constexpr int kThreads = 8;
  constexpr int kSamples = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kSamples; ++i) h.record(static_cast<std::uint64_t>(i % 4096));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kSamples);
}

TEST(Histogram, HugeValuesClampToLastBin) {
  latency_histogram h;
  h.record(~0ULL);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile_ns(1.0), ~0ULL);
}

TEST(TimedFactory, RecordsEveryCounterOperation) {
  latency_histogram arrives, departs;
  timed_factory factory(make_counter_factory("dyn:1"), &arrives, &departs);
  serial_executor exec;
  dag_engine engine(factory, exec);
  auto [root, final_v] = engine.make();
  root->body = [] {
    fork2([] { fork2([] {}, [] {}); }, [] {});
  };
  engine.add(final_v);
  engine.add(root);
  exec.run_all(engine);
  // 2 spawns = 2 arrives; every obligation resolves with a depart:
  // make's initial counter has surplus 1 resolved by a depart too.
  EXPECT_EQ(arrives.count(), 2u);
  EXPECT_EQ(departs.count(), 3u);
  EXPECT_GT(arrives.percentile_ns(1.0), 0u);
}

TEST(TimedFactory, PreservesProgramSemantics) {
  latency_histogram arrives, departs;
  timed_factory factory(make_counter_factory("dyn"), &arrives, &departs);
  auto sched = make_scheduler("ws", 2, false);
  dag_engine engine(factory, *sched);
  auto [root, final_v] = engine.make();
  std::atomic<int> leaves{0};
  auto* l = &leaves;
  root->body = [l] {
    struct rec {
      static void go(std::atomic<int>* l, int d) {
        if (d == 0) {
          l->fetch_add(1);
          return;
        }
        fork2([l, d] { go(l, d - 1); }, [l, d] { go(l, d - 1); });
      }
    };
    rec::go(l, 6);
  };
  sched->run(engine, root, final_v);
  EXPECT_EQ(leaves.load(), 64);
  EXPECT_EQ(arrives.count(), 63u);
  EXPECT_EQ(engine.live_vertices(), 0u);
}

}  // namespace
}  // namespace spdag
