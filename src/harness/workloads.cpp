#include "harness/workloads.hpp"

#include <atomic>
#include <chrono>

#include "dag/future.hpp"
#include "dag/parallel_for.hpp"
#include "util/backoff.hpp"
#include "util/dummy_work.hpp"

namespace spdag::harness {

namespace {

void indegree2_rec(std::uint64_t n, std::uint64_t work_ns) {
  if (n >= 2) {
    finish_then(
        [n, work_ns] {
          fork2([n, work_ns] { indegree2_rec(n / 2, work_ns); },
                [n, work_ns] { indegree2_rec(n - n / 2, work_ns); });
        },
        [] {});
  } else if (work_ns != 0) {
    spin_ns(work_ns);
  }
}

void fanout_rec(future<std::uint64_t> f, std::atomic<std::uint64_t>* sum,
                std::uint64_t k, std::uint64_t work_ns) {
  if (k >= 2) {
    fork2([f, sum, k, work_ns] { fanout_rec(f, sum, k / 2, work_ns); },
          [f, sum, k, work_ns] { fanout_rec(f, sum, k - k / 2, work_ns); });
  } else if (k == 1) {
    future_then(f, [sum, work_ns](std::uint64_t v) {
      if (work_ns != 0) spin_ns(work_ns);
      sum->fetch_add(v, std::memory_order_relaxed);
    });
  }
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CAS-max: record `t` in *dest if it is the latest delivery seen so far.
void stamp_latest(std::atomic<std::int64_t>* dest, std::int64_t t) {
  std::int64_t prev = dest->load(std::memory_order_relaxed);
  while (prev < t &&
         !dest->compare_exchange_weak(prev, t, std::memory_order_relaxed)) {
  }
}

// Shared by the producer and every consumer of one fanout_timed pass.
struct fanout_clock {
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> registered{0};
  std::atomic<std::int64_t> t0{0};
  std::atomic<std::int64_t> latest{0};
};

void fanout_timed_rec(future<std::uint64_t> f, fanout_clock* c,
                      latency_histogram* hist, std::uint64_t k,
                      std::uint64_t work_ns) {
  if (k >= 2) {
    fork2([=] { fanout_timed_rec(f, c, hist, k / 2, work_ns); },
          [=] { fanout_timed_rec(f, c, hist, k - k / 2, work_ns); });
  } else if (k == 1) {
    future_then(f, [c, hist, work_ns](std::uint64_t v) {
      // Stamp BEFORE the dummy work: delivery latency, not work time.
      const std::int64_t now = now_ns();
      stamp_latest(&c->latest, now);
      if (hist != nullptr) {
        const std::int64_t start = c->t0.load(std::memory_order_relaxed);
        hist->record(now > start ? static_cast<std::uint64_t>(now - start)
                                 : 0);
      }
      if (work_ns != 0) spin_ns(work_ns);
      c->sum.fetch_add(v, std::memory_order_relaxed);
    });
    // Released after the registration, so the producer's acquire of the
    // full count orders every add before its finalize.
    c->registered.fetch_add(1, std::memory_order_release);
  }
}

void churn_rec(std::atomic<std::uint64_t>* sum, std::uint64_t k,
               std::uint64_t work_ns) {
  if (k >= 2) {
    fork2([sum, k, work_ns] { churn_rec(sum, k / 2, work_ns); },
          [sum, k, work_ns] { churn_rec(sum, k - k / 2, work_ns); });
  } else if (k == 1) {
    // One full future lifecycle per leaf: make + complete + one
    // registration + destroy, nothing shared across leaves.
    fork2_future<std::uint64_t>(
        [work_ns] {
          if (work_ns != 0) spin_ns(work_ns);
          return std::uint64_t{1};
        },
        [sum](future<std::uint64_t> f) {
          future_then(f, [sum](std::uint64_t v) {
            sum->fetch_add(v, std::memory_order_relaxed);
          });
        });
  }
}

void churn_timed_rec(std::atomic<std::uint64_t>* sum, latency_histogram* hist,
                     std::uint64_t k, std::uint64_t work_ns) {
  if (k >= 2) {
    fork2([=] { churn_timed_rec(sum, hist, k / 2, work_ns); },
          [=] { churn_timed_rec(sum, hist, k - k / 2, work_ns); });
  } else if (k == 1) {
    // Same lifecycle as churn_rec, but the producer returns its completion
    // timestamp AS the future's value; the consumer's delta is then the
    // complete-to-delivery latency with zero extra state per iteration.
    fork2_future<std::uint64_t>(
        [work_ns] {
          if (work_ns != 0) spin_ns(work_ns);
          return static_cast<std::uint64_t>(now_ns());
        },
        [sum, hist](future<std::uint64_t> f) {
          future_then(f, [sum, hist](std::uint64_t v) {
            const std::int64_t now = now_ns();
            const std::int64_t start = static_cast<std::int64_t>(v);
            hist->record(now > start ? static_cast<std::uint64_t>(now - start)
                                     : 0);
            sum->fetch_add(1, std::memory_order_relaxed);
          });
        });
  }
}

void fib_rec(unsigned n, std::uint64_t* dest) {
  if (n <= 1) {
    *dest = n;
    return;
  }
  // The paper's Figure 4: a chain whose first vertex spawns the two
  // recursive calls and whose second vertex sums the results.
  auto* res = new std::pair<std::uint64_t, std::uint64_t>{0, 0};
  finish_then(
      [n, res] {
        fork2([n, res] { fib_rec(n - 1, &res->first); },
              [n, res] { fib_rec(n - 2, &res->second); });
      },
      [res, dest] {
        *dest = res->first + res->second;
        delete res;
      });
}

}  // namespace

void fanin(runtime& rt, std::uint64_t n, std::uint64_t work_ns, bool batch) {
  if (work_ns != 0) spin_units_per_ns();  // calibrate outside the timed region
  // The fan-out IS parallel_for with grain 1 (n leaves under one finish) —
  // the former private fanin_rec splitter duplicated pfor_range verbatim,
  // so the benches now exercise the same builder the apps use.
  rt.run([n, work_ns, batch] {
    finish_then(
        [n, work_ns, batch] {
          auto leaf = [work_ns](std::size_t) {
            if (work_ns != 0) spin_ns(work_ns);
          };
          if (batch) {
            parallel_for_blocked(0, static_cast<std::size_t>(n), 1, leaf);
          } else {
            parallel_for(0, static_cast<std::size_t>(n), 1, leaf);
          }
        },
        [] {});
  });
}

void indegree2(runtime& rt, std::uint64_t n, std::uint64_t work_ns) {
  if (work_ns != 0) spin_units_per_ns();
  rt.run([n, work_ns] { indegree2_rec(n, work_ns); });
}

std::uint64_t fanout(runtime& rt, std::uint64_t consumers,
                     std::uint64_t work_ns, std::uint64_t producer_ns) {
  if (work_ns != 0 || producer_ns != 0) spin_units_per_ns();
  std::atomic<std::uint64_t> sum{0};
  auto* s = &sum;
  rt.run([s, consumers, work_ns, producer_ns] {
    fork2_future<std::uint64_t>(
        [producer_ns] {
          if (producer_ns != 0) spin_ns(producer_ns);
          return std::uint64_t{1};
        },
        [s, consumers, work_ns](future<std::uint64_t> f) {
          fanout_rec(f, s, consumers, work_ns);
        });
  });
  return sum.load();
}

std::uint64_t fanout_timed(runtime& rt, std::uint64_t consumers,
                           std::uint64_t work_ns, fanout_timing* timing,
                           latency_histogram* hist) {
  if (work_ns != 0) spin_units_per_ns();
  fanout_clock clock;
  fanout_clock* c = &clock;
  // Hand-rolled fork2_future so the producer can wait for the registrations
  // and stamp the finalize start immediately before complete() — the
  // producer closure of fork2_future offers no hook there.
  rt.run([c, hist, consumers, work_ns] {
    future<std::uint64_t> f = future<std::uint64_t>::make();
    fork2(
        [f, c, consumers] {
          // Every consumer registers before the broadcast starts, so the
          // pass times the out-set's finalize, not a race with the consumer
          // tree. One worker runs the consumer side first (LIFO) and never
          // waits here; the deadline only bounds a bug.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(1);
          while (c->registered.load(std::memory_order_acquire) < consumers &&
                 std::chrono::steady_clock::now() < deadline) {
            cpu_relax();
          }
          c->t0.store(now_ns(), std::memory_order_relaxed);
          f.complete(1, dag_engine::current_engine());
        },
        [f, c, hist, consumers, work_ns] {
          fanout_timed_rec(f, c, hist, consumers, work_ns);
        });
  });
  if (timing != nullptr) {
    const std::int64_t span = clock.latest.load() - clock.t0.load();
    timing->finalize_to_last_s =
        (consumers > 0 && span > 0) ? static_cast<double>(span) * 1e-9 : 0.0;
  }
  return clock.sum.load();
}

std::uint64_t future_churn(runtime& rt, std::uint64_t n,
                           std::uint64_t work_ns) {
  if (work_ns != 0) spin_units_per_ns();
  std::atomic<std::uint64_t> sum{0};
  auto* s = &sum;
  rt.run([s, n, work_ns] { churn_rec(s, n, work_ns); });
  return sum.load();
}

std::uint64_t future_churn_timed(runtime& rt, std::uint64_t n,
                                 std::uint64_t work_ns,
                                 latency_histogram* hist) {
  if (work_ns != 0) spin_units_per_ns();
  std::atomic<std::uint64_t> sum{0};
  auto* s = &sum;
  rt.run([s, hist, n, work_ns] { churn_timed_rec(s, hist, n, work_ns); });
  return sum.load();
}

std::uint64_t fib(runtime& rt, unsigned n) {
  std::uint64_t result = 0;
  std::uint64_t* dest = &result;
  rt.run([n, dest] { fib_rec(n, dest); });
  return result;
}

std::uint64_t counter_ops(std::uint64_t n) {
  // Each of the n-1 spawns is one arrive; each of the n leaves plus the n-1
  // spawn continuations resolves one depart obligation. We report the
  // paper's convention (ops = n) scaled to arrive+depart pairs.
  return 2 * n;
}

std::uint64_t outset_ops(std::uint64_t n) {
  // One registration plus one delivery per consumer.
  return 2 * n;
}

std::uint64_t churn_futures(std::uint64_t n) {
  // One future lifecycle per leaf.
  return n;
}

}  // namespace spdag::harness
