#pragma once
// Bench-owned instrumentation for spdag_bench.
//
// Everything here sits outside the library and reaches it only through its
// public interfaces: tallies the correctness oracles read, and decorators
// over counter_factory / dep_counter and pool_registry / object_pool that
// time each operation of the layer they wrap. Every accumulator lives in a
// per-thread, cache-line-padded slot, so instrumentation adds no shared hot
// line to the program it observes; slots are summed only at quiescence.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "counter/dep_counter.hpp"
#include "incounter/factory.hpp"
#include "mem/pool.hpp"
#include "mem/registry.hpp"
#include "outset/factory.hpp"
#include "sched/runtime.hpp"
#include "snzi/stats.hpp"

namespace spdag_bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64 finalizer: the bench's only source of input randomness, kept
// here rather than borrowed from the library so a library change cannot
// change the inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct rng {
  std::uint64_t state;
  std::uint64_t next() { return mix64(state++); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Uniform in (0, 1).
  double unit() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }
};

// Dense index of the calling thread, assigned on first use. Indices are not
// recycled: a run creates a few dozen threads at most (one per worker of
// each runtime it builds), far below max_threads.
inline constexpr int max_threads = 512;

inline int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  if (id >= max_threads) {
    std::fprintf(stderr, "spdag_bench: more than %d threads\n", max_threads);
    std::abort();
  }
  return id;
}

// One T per thread, each on its own cache lines. Single writer per slot;
// sum() and reset() are for quiescent points only (between runs, after
// every ticket was waited on), where the runtime's completion handshake
// orders the workers' writes before the reader.
template <typename T>
class per_thread {
 public:
  T& mine() { return slots_[thread_index()].value; }

  T sum() const {
    T total{};
    for (const slot& s : slots_) total += s.value;
    return total;
  }

  void reset() {
    for (slot& s : slots_) s.value = T{};
  }

 private:
  struct alignas(64) slot {
    T value{};
  };
  std::array<slot, max_threads> slots_{};
};

// Oracle tally: how many leaves (or deliveries) ran and the sum of the
// seed-derived values they carried.
struct tally {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  tally& operator+=(const tally& o) {
    count += o.count;
    sum += o.sum;
    return *this;
  }
};

// Layer time measured by the decorators below. Allocations made inside a
// counter operation (SNZI child pairs on grow) are left to the counter's
// time, so the two layer sums never overlap and self time is what remains.
struct layer_time {
  std::uint64_t arrives = 0;
  std::uint64_t arrive_ns = 0;
  std::uint64_t departs = 0;
  std::uint64_t depart_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_ns = 0;
  std::uint64_t frees = 0;
  std::uint64_t free_ns = 0;
  layer_time& operator+=(const layer_time& o) {
    arrives += o.arrives;
    arrive_ns += o.arrive_ns;
    departs += o.departs;
    depart_ns += o.depart_ns;
    allocs += o.allocs;
    alloc_ns += o.alloc_ns;
    frees += o.frees;
    free_ns += o.free_ns;
    return *this;
  }
};

using layer_slots = per_thread<layer_time>;

namespace detail {
inline thread_local bool in_counter_op = false;

inline std::uint64_t since(std::int64_t t0) {
  const std::int64_t d = now_ns() - t0;
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}
}  // namespace detail

// Times every arrive/add/depart of the wrapped counter. Batched add(k) is
// one counter operation and is recorded as one arrive. The library's
// incounter/timed_factory.hpp records into shared power-of-two histograms,
// a hot line every worker writes; these sums stay in per-thread slots.
class timed_counter final : public spdag::dep_counter {
 public:
  timed_counter(std::unique_ptr<spdag::dep_counter> inner, layer_slots* slots)
      : inner_(std::move(inner)), slots_(slots) {}

  spdag::arrive_result arrive(spdag::token inc, bool from_left) override {
    detail::in_counter_op = true;
    const std::int64_t t0 = now_ns();
    const spdag::arrive_result r = inner_->arrive(inc, from_left);
    record_arrive(t0);
    return r;
  }

  spdag::arrive_result add(spdag::token inc, bool from_left,
                           std::uint32_t k) override {
    detail::in_counter_op = true;
    const std::int64_t t0 = now_ns();
    const spdag::arrive_result r = inner_->add(inc, from_left, k);
    record_arrive(t0);
    return r;
  }

  bool depart(spdag::token dec) override {
    detail::in_counter_op = true;
    const std::int64_t t0 = now_ns();
    const bool zero = inner_->depart(dec);
    layer_time& s = slots_->mine();
    s.depart_ns += detail::since(t0);
    ++s.departs;
    detail::in_counter_op = false;
    return zero;
  }

  bool is_zero() const override { return inner_->is_zero(); }
  spdag::token root_token() override { return inner_->root_token(); }
  bool uses_tokens() const override { return inner_->uses_tokens(); }
  void abandon(spdag::token inc) override { inner_->abandon(inc); }
  void reset(std::uint32_t n) override { inner_->reset(n); }

 private:
  void record_arrive(std::int64_t t0) {
    layer_time& s = slots_->mine();
    s.arrive_ns += detail::since(t0);
    ++s.arrives;
    detail::in_counter_op = false;
  }

  std::unique_ptr<spdag::dep_counter> inner_;
  layer_slots* slots_;
};

class timed_counter_factory final : public spdag::counter_factory {
 public:
  timed_counter_factory(std::unique_ptr<spdag::counter_factory> inner,
                        spdag::pool_registry* pools, layer_slots* slots)
      : counter_factory(pools), inner_(std::move(inner)), slots_(slots) {}

  std::string name() const override { return inner_->name() + "+timed"; }
  std::string display_name() const override { return inner_->display_name(); }

 protected:
  std::unique_ptr<spdag::dep_counter> create() override {
    return std::make_unique<timed_counter>(inner_->make_unpooled(), slots_);
  }
  spdag::dep_counter* create_pooled(
      spdag::object_bank<spdag::dep_counter>& bank) override {
    return bank.emplace<timed_counter>(inner_->make_unpooled(), slots_);
  }

 private:
  std::unique_ptr<spdag::counter_factory> inner_;
  layer_slots* slots_;
};

// Times allocate/deallocate of one pool of the wrapped registry.
class timed_pool final : public spdag::object_pool {
 public:
  timed_pool(spdag::object_pool& inner, layer_slots* slots)
      : object_pool(inner.name(), inner.object_bytes(), inner.object_align()),
        inner_(inner),
        slots_(slots) {}

  void* allocate() override {
    if (detail::in_counter_op) return inner_.allocate();
    const std::int64_t t0 = now_ns();
    void* p = inner_.allocate();
    layer_time& s = slots_->mine();
    s.alloc_ns += detail::since(t0);
    ++s.allocs;
    return p;
  }

  void deallocate(void* p) noexcept override {
    if (detail::in_counter_op) {
      inner_.deallocate(p);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_.deallocate(p);
    layer_time& s = slots_->mine();
    s.free_ns += detail::since(t0);
    ++s.frees;
  }

  spdag::pool_stats stats() const override { return inner_.stats(); }
  std::size_t trim() override { return inner_.trim(); }
  std::size_t trim_live() override { return inner_.trim_live(); }

 private:
  spdag::object_pool& inner_;
  layer_slots* slots_;
};

class timed_registry final : public spdag::pool_registry {
 public:
  timed_registry(std::unique_ptr<spdag::pool_registry> inner,
                 layer_slots* slots)
      : inner_(std::move(inner)), slots_(slots) {}

  std::string spec() const override { return inner_->spec() + "+timed"; }

 protected:
  // `key` arrives composed as name:bytes:aN (pool_registry::get); the inner
  // registry composes it again, so hand it the bare name.
  std::unique_ptr<spdag::object_pool> create(std::string key, std::size_t bytes,
                                             std::size_t align) override {
    const std::string suffix =
        ":" + std::to_string(bytes) + ":a" + std::to_string(align);
    const std::string name = key.substr(0, key.size() - suffix.size());
    return std::make_unique<timed_pool>(inner_->get(name, bytes, align),
                                        slots_);
  }

 private:
  std::unique_ptr<spdag::pool_registry> inner_;
  layer_slots* slots_;
};

// The runtime of runtime_config{} rebuilt from its public parts, with the
// counter factory and pool registry decorated. runtime itself builds its
// counter factory from a spec string, so this is the only way to time the
// counter layer. Member order mirrors runtime: registry first, engine last.
class timed_runtime {
 public:
  timed_runtime(std::size_t workers, layer_slots* slots,
                spdag::snzi::tree_stats* snzi)
      : pools_(spdag::make_pool_registry("pool"), slots),
        factory_(spdag::make_counter_factory("dyn", snzi, &pools_), &pools_,
                 slots),
        outsets_(spdag::make_outset_factory("simple", &pools_)),
        sched_(spdag::make_scheduler("ws", workers, false)),
        engine_(factory_, *sched_,
                {.outsets = outsets_.get(), .pools = &pools_}) {}

  template <typename F>
  void run(F&& root_body) {
    auto [root, final_v] = engine_.make();
    root->body = std::forward<F>(root_body);
    sched_->run(engine_, root, final_v);
  }

  spdag::dag_engine& engine() { return engine_; }
  spdag::scheduler_base& sched() { return *sched_; }
  spdag::outset_factory& outsets() { return *outsets_; }
  spdag::pool_registry& pools() { return pools_; }
  std::size_t workers() const { return sched_->worker_count(); }

 private:
  timed_registry pools_;
  timed_counter_factory factory_;
  std::unique_ptr<spdag::outset_factory> outsets_;
  std::unique_ptr<spdag::scheduler_base> sched_;
  spdag::dag_engine engine_;
};

}  // namespace spdag_bench
