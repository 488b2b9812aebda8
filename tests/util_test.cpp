// Tests for the util substrate: inline_function, RNG, Treiber stack,
// spin barrier, CLI options, statistics, dummy work.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/cache_aligned.hpp"
#include "util/cli.hpp"
#include "util/dummy_work.hpp"
#include "util/inline_function.hpp"
#include "util/rng.hpp"
#include "util/spin_barrier.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace spdag {
namespace {

// --- cache alignment ---

TEST(CacheAligned, TypesAreLineAligned) {
  EXPECT_EQ(alignof(cache_aligned<int>), cache_line_size);
  EXPECT_EQ(sizeof(padded<char>) % cache_line_size, 0u);
  EXPECT_EQ(sizeof(padded<char[128]>) % cache_line_size, 0u);
}

TEST(CacheAligned, ArrayElementsDoNotShareLines) {
  std::vector<padded<std::atomic<int>>> v(4);
  for (std::size_t i = 1; i < v.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&v[i - 1].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&v[i].value);
    EXPECT_GE(b - a, cache_line_size);
  }
}

// --- inline_function ---

TEST(InlineFunction, EmptyIsFalsy) {
  inline_function<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, InvokesStoredClosure) {
  int hits = 0;
  inline_function<void()> f([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, ReturnsValues) {
  inline_function<int(int)> f([](int x) { return x * 2; });
  EXPECT_EQ(f(21), 42);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  int hits = 0;
  inline_function<void()> f([&hits] { ++hits; });
  inline_function<void()> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  g();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, DestroysClosureState) {
  auto counter = std::make_shared<int>(0);
  std::weak_ptr<int> watch = counter;
  {
    inline_function<void()> f([counter] { (void)counter; });
    counter.reset();
    EXPECT_FALSE(watch.expired()) << "closure keeps its captures alive";
  }
  EXPECT_TRUE(watch.expired()) << "destroying the function frees captures";
}

TEST(InlineFunction, ResetDropsClosure) {
  auto counter = std::make_shared<int>(0);
  std::weak_ptr<int> watch = counter;
  inline_function<void()> f([counter] {});
  counter.reset();
  f.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, ReassignmentDestroysPrevious) {
  auto a = std::make_shared<int>(1);
  std::weak_ptr<int> watch = a;
  inline_function<void()> f([a] {});
  a.reset();
  f = inline_function<void()>([] {});
  EXPECT_TRUE(watch.expired());
  f();
}

// --- RNG ---

TEST(Rng, DeterministicForSameSeed) {
  xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(13), 13u);
  }
}

TEST(Rng, FlipRateApproximatesBias) {
  xoshiro256 r(11);
  int heads = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (r.flip(1, 10)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kTrials, 0.1, 0.02);
}

TEST(Rng, ThreadLocalStreamsAreIndependent) {
  std::uint64_t first_main = thread_rng()();
  std::uint64_t first_other = 0;
  std::thread t([&first_other] { first_other = thread_rng()(); });
  t.join();
  EXPECT_NE(first_main, first_other);
}

// --- spin barrier ---

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 100;
  spin_barrier bar(kThreads);
  std::atomic<int> phase_counts[kPhases] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counts[p].fetch_add(1);
        bar.arrive_and_wait();
        // After the barrier, everyone must have bumped this phase.
        EXPECT_EQ(phase_counts[p].load(), kThreads);
        bar.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
}

// --- options ---

TEST(Options, ParsesDashKeyValuePairs) {
  const char* argv[] = {"prog", "-n", "1000", "-algo", "dyn", "-flag"};
  options o(6, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("n", 0), 1000);
  EXPECT_EQ(o.get_string("algo", ""), "dyn");
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.get_int("missing", 7), 7);
}

TEST(Options, EnvironmentFallback) {
  ::setenv("SPDAG_UTEST_KNOB", "123", 1);
  options o;
  EXPECT_EQ(o.get_int("utest-knob", 0), 123);
  ::unsetenv("SPDAG_UTEST_KNOB");
}

TEST(Options, CommandLineBeatsNothing) {
  const char* argv[] = {"prog", "-x", "2.5"};
  options o(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(o.get_double("x", 0.0), 2.5);
}

// --- stats ---

TEST(RunStats, ComputesMoments) {
  run_stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.count(), 8u);
}

TEST(ResultTable, PrintsGridAndCsv) {
  result_table t({"algo", "procs", "ops/s"});
  t.add_row({"faa", "1", result_table::num(12345.678, 1)});
  t.add_row({"in-counter", "40", "99"});
  std::ostringstream grid, csv;
  t.print(grid);
  t.print_csv(csv);
  EXPECT_NE(grid.str().find("in-counter"), std::string::npos);
  EXPECT_NE(csv.str().find("algo,procs,ops/s"), std::string::npos);
  EXPECT_NE(csv.str().find("faa,1,12345.7"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "few"}), std::invalid_argument);
}

// --- dummy work ---

TEST(DummyWork, ScalesRoughlyLinearly) {
  // spin_work must not be optimized away and must scale with units. Each
  // span is the minimum of 5 repetitions: preemption only ever lengthens a
  // span, so one preempted short span cannot fail the comparison.
  const auto min_span_s = [](std::uint64_t units) {
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
      wall_timer t;
      sink(spin_work(units));
      const double s = t.elapsed_s();
      if (rep == 0 || s < best) best = s;
    }
    return best;
  };
  const double small = min_span_s(1'000'000);
  const double big = min_span_s(10'000'000);
  EXPECT_GT(big, small * 3) << "10x units should take clearly longer";
}

TEST(DummyWork, CalibrationIsPositive) {
  EXPECT_GT(spin_units_per_ns(), 0.0);
}

}  // namespace
}  // namespace spdag
