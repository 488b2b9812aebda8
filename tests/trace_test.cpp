// Tracing subsystem (src/obs/) conformance: spec parsing strictness, ring
// retention and drop-oldest wraparound, span accumulation and reentrancy,
// cross-thread emit storms (the TSan lane's race check on the single-writer
// rings), runtime integration through the `trace:` config axis, and the
// Perfetto dump smoke.
//
// Every test that emits configures the tracer itself and restores `off`
// on exit — the tracer is process-wide, and other suites in this binary
// must not see a live mode.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/workloads.hpp"
#include "mem/thread_slot.hpp"
#include "obs/trace.hpp"
#include "sched/runtime.hpp"

namespace spdag {
namespace {

// RAII: configure for the test body, always back to off afterwards.
struct scoped_trace {
  explicit scoped_trace(const std::string& spec) {
    obs::tracer::instance().configure(spec);
  }
  ~scoped_trace() { obs::tracer::instance().configure("off"); }
};

TEST(TraceSpec, AcceptsTheThreeModesAndCaps) {
  EXPECT_EQ(obs::parse_trace_spec("off").mode, obs::trace_mode::off);
  EXPECT_EQ(obs::parse_trace_spec("counters").mode, obs::trace_mode::counters);
  EXPECT_EQ(obs::parse_trace_spec("full").mode, obs::trace_mode::full);
  EXPECT_EQ(obs::parse_trace_spec("full").ring_cap, std::size_t{1} << 16);
  EXPECT_EQ(obs::parse_trace_spec("full:4096").ring_cap, 4096u);
  // The axis prefix is accepted, same as "alloc:" on the pool spec.
  EXPECT_EQ(obs::parse_trace_spec("trace:full:1024").ring_cap, 1024u);
  EXPECT_EQ(obs::parse_trace_spec("trace:off").mode, obs::trace_mode::off);
  // Rails are inclusive.
  EXPECT_EQ(obs::parse_trace_spec("full:256").ring_cap, 256u);
  EXPECT_EQ(obs::parse_trace_spec("full:4194304").ring_cap,
            std::size_t{1} << 22);
}

TEST(TraceSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(obs::parse_trace_spec(""), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("bogus"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("trace:"), std::invalid_argument);
  // A cap is only legal on "full".
  EXPECT_THROW(obs::parse_trace_spec("off:8"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("counters:64"), std::invalid_argument);
  // Strict numeric field: digits only, inside the rails.
  EXPECT_THROW(obs::parse_trace_spec("full:"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:abc"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:123x"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:-1"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:0"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:255"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:4194305"), std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(obs::parse_trace_spec("full:4096:4096"), std::invalid_argument);
}

TEST(TraceRing, RetainsExactlyCapAndDropsOldestOnWrap) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with SPDAG_TRACE=OFF";
  constexpr std::size_t kCap = 256;  // the minimum rail, already a pow2
  scoped_trace t("full:256");
  auto& tr = obs::tracer::instance();
  ASSERT_EQ(tr.mode(), obs::trace_mode::full);
  ASSERT_EQ(tr.ring_capacity(), kCap);
  const int slot = mem::thread_slot();
  ASSERT_GE(slot, 0);

  // Under-fill: everything sticks, in order, nothing dropped.
  for (std::uint32_t i = 0; i < 10; ++i) obs::emit(obs::ev_spawn, 0, i);
  {
    const auto events = tr.ring_events(slot);
    ASSERT_EQ(events.size(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
      EXPECT_EQ(events[i].id, obs::ev_spawn);
      EXPECT_EQ(events[i].b, i);
    }
    EXPECT_EQ(tr.ring_dropped(slot), 0u);
  }

  // Overflow by exactly 100: the ring keeps the NEWEST kCap events and
  // reports the overwritten prefix as dropped.
  tr.reset();
  const std::uint32_t total = static_cast<std::uint32_t>(kCap) + 100;
  for (std::uint32_t i = 0; i < total; ++i) obs::emit(obs::ev_spawn, 0, i);
  const auto events = tr.ring_events(slot);
  ASSERT_EQ(events.size(), kCap);
  EXPECT_EQ(events.front().b, 100u) << "oldest 100 must be the ones dropped";
  EXPECT_EQ(events.back().b, total - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].b, events[i - 1].b + 1);
    EXPECT_GE(events[i].ts, events[i - 1].ts) << "single-writer ring must be "
                                                 "timestamp-ordered";
  }
  EXPECT_EQ(tr.ring_dropped(slot), 100u);

  const obs::trace_summary sum = tr.summary();
  EXPECT_EQ(sum.events, total) << "counts see every emit, kept or dropped";
  EXPECT_EQ(sum.dropped, 100u);
  EXPECT_EQ(sum.spawns, total);
  EXPECT_EQ(sum.workers, 1u);
}

TEST(TraceRing, CountersModeCountsWithoutRingStorage) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with SPDAG_TRACE=OFF";
  scoped_trace t("counters");
  auto& tr = obs::tracer::instance();
  EXPECT_EQ(tr.ring_capacity(), 0u);
  for (int i = 0; i < 50; ++i) obs::emit(obs::ev_claim_dec);
  EXPECT_TRUE(tr.ring_events(mem::thread_slot()).empty());
  const obs::trace_summary sum = tr.summary();
  EXPECT_EQ(sum.claim_decs, 50u);
  EXPECT_EQ(sum.dropped, 0u) << "no ring means nothing to drop";
}

TEST(TraceSpans, AccumulateAndAreReentrancySafe) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with SPDAG_TRACE=OFF";
  scoped_trace t("counters");
  auto& tr = obs::tracer::instance();
  volatile int sink = 0;
  (void)sink;
  {
    obs::span_guard outer(obs::sp_work);
    {
      // A nested same-span guard must not double-count or corrupt depth.
      obs::span_guard inner(obs::sp_work);
    }
    {
      // A drain vertex's span nests in its work span.
      obs::span_guard drain(obs::sp_drain);
      for (int i = 0; i < 50000; ++i) sink = i;
    }
    for (int i = 0; i < 50000; ++i) sink = i;
  }
  {
    obs::span_guard steal(obs::sp_steal);
    for (int i = 0; i < 50000; ++i) sink = i;
  }
  const obs::trace_summary sum = tr.summary();
  EXPECT_GT(sum.work_s, 0.0);
  EXPECT_GT(sum.steal_s, 0.0);
  EXPECT_EQ(sum.idle_s, 0.0);
  // The three-way split normalizes over work+idle+steal; drain time is
  // informational and already inside work.
  EXPECT_NEAR(sum.work_frac + sum.idle_frac + sum.steal_frac, 1.0, 1e-9);
  EXPECT_GT(sum.drain_s, 0.0);
  EXPECT_LT(sum.drain_s, sum.work_s);
  EXPECT_GT(sum.work_frac, 0.0);
  EXPECT_LT(sum.work_frac, 1.0);
}

TEST(TraceGauges, TrackLiveValueAcrossThreads) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with SPDAG_TRACE=OFF";
  scoped_trace t("counters");
  auto& tr = obs::tracer::instance();
  EXPECT_EQ(tr.gauge(obs::g_runnable), 0);
  obs::gauge_add(obs::g_runnable, 5);
  obs::gauge_add(obs::g_runnable, -2);
  std::thread other([] { obs::gauge_add(obs::g_runnable, 10); });
  other.join();
  EXPECT_EQ(tr.gauge(obs::g_runnable), 13);
  tr.reset();
  EXPECT_EQ(tr.gauge(obs::g_runnable), 0);
}

TEST(TraceRing, CrossThreadEmitStormKeepsPerThreadTotalsExact) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with SPDAG_TRACE=OFF";
  // The TSan-lane check: 8 raw threads hammer their own rings concurrently
  // while gauges take deltas from everyone. Totals must conserve exactly —
  // each ring is single-writer, only the shared accumulators are contended.
  constexpr int kThreads = 8;
  constexpr std::uint32_t kEmits = 20000;
  scoped_trace t("full:1024");
  auto& tr = obs::tracer::instance();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint32_t j = 0; j < kEmits; ++j) {
        obs::emit(obs::ev_steal_attempt, 1, j);
        obs::gauge_add(obs::g_drains_pending, 1);
        obs::gauge_add(obs::g_drains_pending, -1);
        obs::span_guard sg(obs::sp_steal);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  const obs::trace_summary sum = tr.summary();
  EXPECT_EQ(sum.steal_attempts,
            static_cast<std::uint64_t>(kThreads) * kEmits);
  EXPECT_EQ(tr.gauge(obs::g_drains_pending), 0);
  // Worker attribution: the test threads all emitted; the count of tracks
  // can exceed kThreads if earlier tests' threads left tracks behind, but
  // at least the storm's own slots must appear.
  EXPECT_GE(sum.workers, 1u);
}

TEST(TraceRuntime, ConfigAxisCapturesAScheduledRun) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with SPDAG_TRACE=OFF";
  {
    runtime_config cfg{2, "dyn"};
    cfg.trace = "counters";
    runtime rt(cfg);
    harness::fanin(rt, 1 << 10);
    const obs::trace_summary sum = obs::tracer::instance().summary();
    EXPECT_EQ(sum.mode, obs::trace_mode::counters);
    EXPECT_GT(sum.spawns, 0u);
    EXPECT_GT(sum.claim_decs, 0u);
    EXPECT_GT(sum.work_s, 0.0);
    EXPECT_GT(sum.work_frac, 0.0);
    EXPECT_GE(sum.workers, 2u) << "both workers must have emitted";
  }
  obs::tracer::instance().configure("off");
}

TEST(TraceRuntime, EmptySpecLeavesTracerUntouched) {
  scoped_trace t("counters");
  runtime_config cfg{1, "dyn"};  // cfg.trace defaults to ""
  runtime rt(cfg);
  EXPECT_EQ(obs::tracer::instance().mode(),
            obs::trace_compiled() ? obs::trace_mode::counters
                                  : obs::trace_mode::off);
}

TEST(TraceDump, WritesChromeTraceJsonWithPerWorkerSlices) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with SPDAG_TRACE=OFF";
  const std::string path = ::testing::TempDir() + "spdag_trace_test.json";
  {
    runtime_config cfg{2, "dyn"};
    cfg.trace = "full:4096";
    runtime rt(cfg);
    harness::fanout(rt, 1 << 10, 0, /*producer_ns=*/20000);
  }
  // dump() is quiescent-only: even idle-parked workers emit idle spans, so
  // the runtime (and its threads) must be gone before the rings are read.
  ASSERT_EQ(obs::tracer::instance().dump(path), 0);
  obs::tracer::instance().configure("off");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  // Structural smoke (scripts/trace_validate.py does the full check): the
  // envelope, at least one complete slice, thread metadata, counter track.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(text.find("worker-slot-"), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceCompiledOut, HooksAreInertWhenOff) {
  // Valid in every build: with the tracer off (or compiled out), hooks are
  // no-ops and the summary stays empty.
  obs::tracer::instance().configure("off");
  obs::emit(obs::ev_spawn);
  obs::gauge_add(obs::g_runnable, 3);
  { obs::span_guard sg(obs::sp_work); }
  const obs::trace_summary sum = obs::tracer::instance().summary();
  EXPECT_EQ(sum.events, 0u);
  EXPECT_EQ(obs::tracer::instance().gauge(obs::g_runnable), 0);
  EXPECT_EQ(sum.work_s, 0.0);
}

}  // namespace
}  // namespace spdag
