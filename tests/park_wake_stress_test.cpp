// Park/wake races (stress lane; CI re-runs this under TSan and ASan). No
// wait in the runtime has a timeout (util/spin_wait.hpp), so a lost
// wake-up hangs: ctest's TIMEOUT on this test turns that hang into a
// failure. Covered: the wait primitive itself, 10^5 run()s per scheduler
// and worker count, some after pauses long enough that every worker really
// blocks and some timed to land as the workers' spins run out, and a
// resident service whose clients submit
// bursts separated by such pauses (admission and ticket waits, with and
// without a concurrent trimmer),
// plus construct/submit/shutdown cycles, roots injected while one worker
// runs a long vertex (a wake must reach a worker that can run them), an
// injection-queue pop that loses the queue's lock (it must retry, not
// report the queue empty), and runs whose vertices all pass through the
// workers' slots (none may be stranded there).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dag/engine.hpp"
#include "sched/runtime.hpp"
#include "service/service.hpp"
#include "util/spin_wait.hpp"

namespace spdag {

// The injection fifo that both schedulers' workers poll (scheduler_base
// declares this struct a friend).
struct injection_fifo_seam {
  static auto& of(scheduler_base& s) { return s.injected_; }
};

namespace {

// Long enough that a waiter exhausts its spin and blocks.
constexpr auto past_spin = 2 * spin_bound;

// --- the primitive -----------------------------------------------------------

TEST(SpinWait, SpinUntilReportsReadyAndTimesOut) {
  int calls = 0;
  EXPECT_TRUE(spin_until([&] { return ++calls == 3; }));
  EXPECT_EQ(calls, 3);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(spin_until([] { return false; }));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, spin_bound);
}

TEST(SpinWait, WakeBeforeWaitReturnsAtOnce) {
  std::atomic<std::uint32_t> word{0};
  wake(word, 1);
  wait_while(word, 0);
  EXPECT_EQ(word.load(), 1u);
}

TEST(SpinWait, WaitThenWake) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::uint32_t> word{0};
    std::atomic<bool> returned{false};
    std::thread sleeper([&] {
      wait_while(word, 0);
      returned.store(true);
    });
    std::this_thread::sleep_for(past_spin);
    EXPECT_FALSE(returned.load());
    wake(word, 1);
    sleeper.join();
    EXPECT_TRUE(returned.load());
  }
}

TEST(SpinWait, ManyWakersOneSleeper) {
  // Each round the sleeper waits for the word to leave `round`; eight
  // wakers race to move it on, and only the first store changes it.
  constexpr std::uint32_t kRounds = 2000;
  constexpr int kWakers = 8;
  std::atomic<std::uint32_t> word{0};
  std::atomic<std::uint32_t> go{0};
  std::vector<std::thread> wakers;
  for (int w = 0; w < kWakers; ++w) {
    wakers.emplace_back([&, w] {
      for (std::uint32_t r = 0; r < kRounds; ++r) {
        while (go.load(std::memory_order_acquire) <= r) {
          std::this_thread::yield();
        }
        if ((r + static_cast<std::uint32_t>(w)) % 16 == 0) {
          std::this_thread::sleep_for(past_spin);
        }
        std::uint32_t expect = r;
        if (word.compare_exchange_strong(expect, r + 1)) word.notify_all();
      }
    });
  }
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    go.store(r + 1, std::memory_order_release);
    wait_while(word, r);
    ASSERT_EQ(word.load(), r + 1);
  }
  for (auto& t : wakers) t.join();
}

// --- workers and run()'s caller -------------------------------------------

class RunParkWake
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

// Busy-waits for `d`, which a sleep cannot time to a microsecond.
void spin_for(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST_P(RunParkWake, EveryRunCompletesExactlyOnce) {
  const auto& [sched, workers] = GetParam();
  runtime rt({.workers = workers, .sched = sched});
  constexpr int kRuns = 100000;
  std::atomic<std::uint64_t> leaves{0};
  for (int i = 0; i < kRuns; ++i) {
    if (i % 64 == 0) {
      // Every worker blocks: the root must wake a registered sleeper.
      std::this_thread::sleep_for(past_spin);
    } else if (i % 4 == 0) {
      // The idle workers' spins run out about spin_bound after the last
      // run: inject across that moment, in steps of 125 ns over 8 us, so
      // that some roots land while a worker is registering as a sleeper.
      spin_for(spin_bound - std::chrono::microseconds(4) +
               std::chrono::nanoseconds(125 * (i / 4 % 64)));
    }
    rt.run([&leaves] {
      fork2([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); },
            [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  EXPECT_EQ(leaves.load(), 2u * kRuns);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
  EXPECT_GT(rt.sched().totals().parks, 0u) << "no worker ever blocked";
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersByWorkers, RunParkWake,
    ::testing::Combine(::testing::Values("ws", "private"),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})));

// A worker holds the vertex it enqueued last in its slot, outside its
// queue, and wakes no one for it: it runs that vertex next. Here every
// body enqueues exactly one ready vertex (a k = 1 batch child), so every
// vertex but the root passes through a slot and no enqueue wakes anyone.
// Between some runs every worker blocks, so the root wakes a sleeper that
// then runs the whole chain from its slot. A vertex stranded in a slot
// hangs run(), which ctest's TIMEOUT turns into a failure.
class HeldSlotParkWake
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

void one_ready_vertex_chain(std::atomic<std::uint64_t>* links, int left) {
  links->fetch_add(1, std::memory_order_relaxed);
  if (left == 0) return;
  dag_engine* eng = dag_engine::current_engine();
  vertex* next = nullptr;
  eng->spawn_batch_vertices(dag_engine::current_vertex(), 1, &next);
  next->body = [links, left] { one_ready_vertex_chain(links, left - 1); };
  eng->add(next);
}

TEST_P(HeldSlotParkWake, ChainsOfOneReadyVertexPerBodyComplete) {
  const auto& [sched, workers] = GetParam();
  runtime rt({.workers = workers, .sched = sched});
  constexpr int kRuns = 20000;
  constexpr int kLinks = 8;
  std::atomic<std::uint64_t> links{0};
  for (int i = 0; i < kRuns; ++i) {
    if (i % 64 == 0) {
      std::this_thread::sleep_for(past_spin);
    } else if (i % 4 == 0) {
      spin_for(spin_bound - std::chrono::microseconds(4) +
               std::chrono::nanoseconds(125 * (i / 4 % 64)));
    }
    rt.run([&links] { one_ready_vertex_chain(&links, kLinks); });
  }
  EXPECT_EQ(links.load(), std::uint64_t{kRuns} * (kLinks + 1));
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
  EXPECT_GT(rt.sched().totals().parks, 0u) << "no worker ever blocked";
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersByWorkers, HeldSlotParkWake,
    ::testing::Combine(::testing::Values("ws", "private"),
                       ::testing::Values(std::size_t{2}, std::size_t{4})));

// --- the resident service ---------------------------------------------------

struct service_case {
  std::string sched;
  bool trimmer;  // a thread calls trim_pools() throughout, or none does
};

class ServiceParkWake : public ::testing::TestWithParam<service_case> {};

service_config two_workers(const service_case& c) {
  service_config cfg;
  cfg.rt.workers = 2;
  cfg.rt.sched = c.sched;
  return cfg;
}

// When `on`, calls svc.trim_pools() every past_spin until destroyed, so
// submitters meet a closed door and shutdown() meets a running trim.
class trimmer {
 public:
  trimmer(dag_service& svc, bool on) {
    if (!on) return;
    thread_ = std::thread([this, &svc] {
      while (!stop_.load(std::memory_order_acquire)) {
        svc.trim_pools();
        std::this_thread::sleep_for(past_spin);
      }
    });
  }
  ~trimmer() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  trimmer(const trimmer&) = delete;
  trimmer& operator=(const trimmer&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST_P(ServiceParkWake, BurstsSeparatedByPausesConserve) {
  constexpr int kClients = 4;
  constexpr int kBursts = 100;
  constexpr int kBurst = 32;
  service_config cfg = two_workers(GetParam());
  cfg.max_inflight = 8;  // below a burst: admission blocks too
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> ok_waits{0};
  {
    dag_service svc(cfg);
    trimmer trims(svc, GetParam().trimmer);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        std::vector<ticket> tickets;
        tickets.reserve(kBurst);
        for (int b = 0; b < kBursts; ++b) {
          tickets.clear();
          for (int i = 0; i < kBurst; ++i) {
            // Every 8th job outlasts a spin, so that blocked submitters
            // and ticket waiters really sleep.
            const bool slow = i % 8 == 0;
            tickets.push_back(svc.submit([&leaves, slow] {
              if (slow) std::this_thread::sleep_for(past_spin);
              fork2([&leaves] { leaves.fetch_add(1); },
                    [&leaves] { leaves.fetch_add(1); });
            }));
          }
          for (auto& t : tickets) {
            if (t.wait()) ok_waits.fetch_add(1);
          }
          std::this_thread::sleep_for(4 * past_spin);
        }
      });
    }
    for (auto& t : clients) t.join();
    svc.shutdown();
    const std::uint64_t n = std::uint64_t{kClients} * kBursts * kBurst;
    const service_stats s = svc.stats();
    EXPECT_EQ(ok_waits.load(), n);
    EXPECT_EQ(leaves.load(), 2 * n);
    EXPECT_EQ(s.submitted, n);
    EXPECT_EQ(s.admitted, n);
    EXPECT_EQ(s.completed, n);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.inflight, 0u);
    EXPECT_LE(s.peak_inflight, cfg.max_inflight);
    EXPECT_EQ(svc.rt().engine().live_vertices(), 0u);
  }
}

TEST_P(ServiceParkWake, ConstructSubmitShutdownCycles) {
  std::atomic<std::uint64_t> leaves{0};
  std::uint64_t completed = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    dag_service svc(two_workers(GetParam()));
    trimmer trims(svc, GetParam().trimmer);
    // Alternate between letting the service fall asleep before the first
    // submission and submitting at once.
    if (cycle % 2 == 0) std::this_thread::sleep_for(past_spin);
    std::vector<ticket> tickets;
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(svc.submit([&leaves] { leaves.fetch_add(1); }));
    }
    if (cycle % 4 == 0) {
      for (auto& t : tickets) EXPECT_TRUE(t.wait());
    }
    svc.shutdown();  // drains whatever is still in flight
    for (auto& t : tickets) EXPECT_TRUE(t.wait());
    const service_stats s = svc.stats();
    EXPECT_EQ(s.submitted, 4u);
    EXPECT_EQ(s.completed, 4u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(svc.rt().engine().live_vertices(), 0u);
    completed += s.completed;
  }
  EXPECT_EQ(leaves.load(), completed);
  EXPECT_EQ(completed, 800u);
}

// Four workers; one runs a long vertex while the client injects the
// launchers of further submissions beside it, and each must run on
// another worker, where it builds and runs its root. Under private one
// idle worker can wait out the whole long vertex in a steal request to it,
// so a wake must reach a worker that takes the launcher from the injection
// queue before it goes stealing, even when it loses the queue's lock. The
// long vertex starts as the other workers' spins run out (swept in 125 ns
// steps, as in RunParkWake), so some of them are registering as sleepers
// just then. A stranded launcher would wait for the long vertex, which gives
// up after `patience`: the test fails instead of hanging.
class LongVertexParkWake : public ::testing::TestWithParam<std::string> {};

TEST_P(LongVertexParkWake, RootsInjectedBesideItRunElsewhere) {
  constexpr int kRounds = 1000;
  constexpr int kRoots = 4;
  constexpr auto patience = std::chrono::seconds(5);
  service_config cfg;
  cfg.rt.workers = 4;
  cfg.rt.sched = GetParam();
  dag_service svc(cfg);
  for (int r = 0; r < kRounds; ++r) {
    // Every worker may take part, then all of them spin out together.
    ASSERT_TRUE(svc.submit([] {
                     fork2([] { fork2([] {}, [] {}); },
                           [] { fork2([] {}, [] {}); });
                   }).wait());
    spin_for(spin_bound - std::chrono::microseconds(4) +
             std::chrono::nanoseconds(125 * (r % 64)));
    std::atomic<int> ran{0};
    std::atomic<bool> gave_up{false};
    ticket long_job = svc.submit([&ran, &gave_up, patience] {
      const auto until = std::chrono::steady_clock::now() + patience;
      while (ran.load() < kRoots) {
        if (std::chrono::steady_clock::now() >= until) {
          gave_up.store(true);
          return;
        }
      }
    });
    for (int i = 0; i < kRoots; ++i) {
      // Half of the roots find every idle worker blocked.
      if (i % 2 == 1) std::this_thread::sleep_for(past_spin);
      ASSERT_TRUE(svc.submit([&ran] { ran.fetch_add(1); }).wait());
    }
    ASSERT_TRUE(long_job.wait());
    ASSERT_FALSE(gave_up.load())
        << "round " << r << ": a root waited for the long vertex";
  }
  svc.shutdown();
  EXPECT_EQ(svc.stats().completed, 2u * kRounds + kRounds * kRoots);
  EXPECT_EQ(svc.rt().engine().live_vertices(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, LongVertexParkWake,
                         ::testing::Values("ws", "private"));

// A pop() that loses the fifo's lock while the fifo holds a vertex must
// keep trying and return that vertex, never null: a worker woken for an
// injected root that took the queue for empty would go stealing instead,
// and under private its steal request can wait out a whole vertex. The
// test holds the lock itself, so no timing decides what pop() sees. Every
// worker is asleep first, and the vertex is staged without a wake, so no
// worker takes it (none could run it: no engine is attached).
class InjectionPopRetries : public ::testing::TestWithParam<std::string> {};

TEST_P(InjectionPopRetries, WhileTheLockIsHeldElsewhere) {
  constexpr std::size_t kWorkers = 2;
  runtime rt({.workers = kWorkers, .sched = GetParam()});
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.sched().totals().parks < kWorkers) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "the idle workers never blocked";
    std::this_thread::sleep_for(past_spin);
  }
  auto& fifo = injection_fifo_seam::of(rt.sched());
  vertex staged;
  std::unique_lock<std::mutex> held(fifo.mu);
  fifo.items.push_back(&staged);
  fifo.size.fetch_add(1, std::memory_order_seq_cst);

  std::atomic<bool> popping{false};
  std::atomic<bool> returned{false};
  vertex* got = nullptr;
  std::thread popper([&] {
    popping.store(true);
    got = fifo.pop();
    returned.store(true);
  });
  while (!popping.load()) std::this_thread::yield();
  // A pop that gives up returns within microseconds; give it 200 ms.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (!returned.load() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(returned.load()) << "pop() returned while the lock was held";
  held.unlock();
  popper.join();
  EXPECT_EQ(got, &staged);
  EXPECT_EQ(fifo.size.load(), 0u);
  EXPECT_EQ(rt.sched().totals().executions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, InjectionPopRetries,
                         ::testing::Values("ws", "private"));

INSTANTIATE_TEST_SUITE_P(
    SchedulersByTrimmer, ServiceParkWake,
    ::testing::Values(service_case{"ws", false}, service_case{"ws", true},
                      service_case{"private", false},
                      service_case{"private", true}),
    [](const ::testing::TestParamInfo<service_case>& info) {
      return info.param.sched +
             (info.param.trimmer ? "_trimmer" : "_no_trimmer");
    });

}  // namespace
}  // namespace spdag
