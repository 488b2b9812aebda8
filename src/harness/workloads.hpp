#pragma once
// The paper's benchmark workloads (section 5, Figures 6 and 7).
//
// fanin(n):      n leaf tasks, all synchronizing at a single finish block —
//                one dependency counter absorbs n increments/decrements, the
//                worst case for a centralized counter.
// indegree2(n):  the same task count, but every pair of asyncs gets its own
//                finish block, so every counter has indegree 2 — the worst
//                case for per-counter allocation cost.
//
// Both take optional per-leaf busy work (the granularity study, appendix
// C.3; "each unit of dummy work takes approximately one nanosecond").

#include <cstdint>

#include "sched/runtime.hpp"
#include "util/histogram.hpp"

namespace spdag::harness {

// Runs one fanin computation of n leaves to completion on rt. The fan-out
// is built by the shared parallel_for machinery (one code path with the
// benches and apps): `batch` false uses the fork2 splitter (one counter
// increment per spawn), true the blocked spawn_batch builder (one batched
// increment per 32 children — the amortized path counter_ops_per_edge
// measures).
void fanin(runtime& rt, std::uint64_t n, std::uint64_t work_ns = 0,
           bool batch = false);

// Runs one indegree-2 computation of n leaves to completion on rt.
void indegree2(runtime& rt, std::uint64_t n, std::uint64_t work_ns = 0);

// fanout(consumers): ONE producer completes one future while `consumers`
// parallel tasks register against it — the mirror image of fanin, and the
// worst case for a centralized waiter list (the out-set benchmark's
// workload). `producer_ns` delays the completion so registrations pile up
// against the pending future (with 0, multi-worker runs complete almost
// immediately and most consumers take the already-ready bypass);
// `work_ns` is per-consumer busy work after delivery. Returns the sum the
// consumers accumulated (== consumers, the produced value is 1) so callers
// can assert exactly-once delivery.
std::uint64_t fanout(runtime& rt, std::uint64_t consumers,
                     std::uint64_t work_ns = 0, std::uint64_t producer_ns = 0);

// Timing sidecar for fanout_timed: how long the broadcast itself took.
struct fanout_timing {
  // Wall time from the producer's complete() call (finalize start) to the
  // LAST consumer observing its delivery — the latency the parallel drain
  // walk is built to cut on deep out-set trees.
  double finalize_to_last_s = 0;
};

// fanout with broadcast-latency instrumentation: same return value, but
// the producer completes only once every consumer has registered (a 1 s
// deadline bounds the wait), so every consumer is captured by the out-set
// and none takes the ready bypass. Each consumer stamps its delivery time
// and `timing` (if non-null) receives finalize-to-last-delivery wall time.
// `hist` (if non-null) additionally records every consumer's
// finalize-to-delivery latency, giving the distribution (p50/p95/p99)
// rather than just the worst case. Pair with a deep-broadcast out-set spec
// ("tree:<f>:<t>:<scatter>") to measure the finalize walk itself.
std::uint64_t fanout_timed(runtime& rt, std::uint64_t consumers,
                           std::uint64_t work_ns, fanout_timing* timing,
                           latency_histogram* hist = nullptr);

// future_churn(n): n INDEPENDENT futures, each created, completed and
// destroyed by its own producer/consumer pair — the allocation worst case
// for the future machinery (one future_state + out-set + waiter record +
// three vertices per iteration), the future-side analogue of indegree2's
// counter churn. Under `alloc:malloc` every iteration hits the heap; under
// `alloc:pool` the slab pools absorb the storm after warm-up. Returns the
// sum of delivered values (== n) so callers can assert exactly-once
// delivery.
std::uint64_t future_churn(runtime& rt, std::uint64_t n,
                           std::uint64_t work_ns = 0);

// future_churn with per-future completion-to-delivery latency recorded into
// `hist`: the producer stamps its clock INTO the future's value and the
// consumer records the delta on delivery — zero extra allocation per
// iteration. Returns the number of deliveries (== n) for the exactly-once
// check.
std::uint64_t future_churn_timed(runtime& rt, std::uint64_t n,
                                 std::uint64_t work_ns,
                                 latency_histogram* hist);

// Parallel Fibonacci on the sp-dag (the paper's running example, Figure 4).
// Exponential work; use small n. Returns fib(n).
std::uint64_t fib(runtime& rt, unsigned n);

// The number of dependency-counter operations (arrives + departs on finish
// counters) a workload of n leaves performs; used for throughput reporting.
std::uint64_t counter_ops(std::uint64_t n);

// The number of out-set operations (registrations + deliveries) a fanout
// workload of n consumers performs.
std::uint64_t outset_ops(std::uint64_t n);

// The number of futures a future_churn workload of n iterations cycles
// through (create + complete + destroy); used for throughput reporting.
std::uint64_t churn_futures(std::uint64_t n);

}  // namespace spdag::harness
