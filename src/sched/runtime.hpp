#pragma once
// runtime: the one-stop facade tying together a counter factory, a dag
// engine, and a scheduler.
//
//   spdag::runtime rt({.workers = 4, .counter = "dyn"});
//   rt.run([] { spdag::fork2([]{ work(); }, []{ work(); }); });
//
// Each run() builds a fresh (root, final) pair with make(), installs the
// given closure as the root body, and blocks until the final vertex runs.
//
// Scheduler specs: "ws" (concurrent Chase-Lev deques, the default) or
// "private" (private deques with explicit steal requests, the PPoPP'13
// algorithm the reproduced paper's own evaluation used).
//
// Out-set specs (waiter broadcast for futures, see make_outset_factory):
// "simple" (single CAS-list head, the default) or "tree[:fanout[:threshold]]"
// (the grow-on-contention out-set tree).
//
// Alloc specs (hot-path memory, see make_pool_registry):
// "pool[:block[:mag]]" (per-worker slab pools, the default; block = upstream
// slab bytes, mag = per-magazine byte budget) or "malloc" (passthrough
// baseline). The registry feeds every bookkeeping allocation under this
// runtime: vertices, dec-pairs, future states, SNZI child pairs, out-set
// node groups and waiter records. Between run()s, trim_pools() hands
// fully-idle slabs back to the OS.

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "dag/engine.hpp"
#include "incounter/factory.hpp"
#include "mem/registry.hpp"
#include "obs/trace.hpp"
#include "outset/factory.hpp"
#include "sched/private_deques.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_base.hpp"

namespace spdag {

struct runtime_config {
  std::size_t workers = 0;     // 0 = hardware_core_count()
  std::string counter = "dyn"; // counter spec, see make_counter_factory
  bool pin_threads = false;
  snzi::tree_stats* snzi_stats = nullptr;
  dag_engine_options engine_options = {};
  std::string sched = "ws";    // "ws" | "private"
  // Out-set spec for futures created under this runtime, see
  // make_outset_factory: "simple" (default) | "tree[:fanout[:threshold]]".
  std::string outset = "simple";
  // Allocation spec, see make_pool_registry:
  // "pool[:block[:mag]]" (default "pool") | "malloc".
  std::string alloc = "pool";
  // Tracing spec applied to the PROCESS-WIDE tracer before this runtime's
  // workers start: "off" | "counters" | "full[:cap]" (see obs/trace.hpp).
  // The empty default leaves the tracer exactly as it is, so constructing a
  // runtime without an opinion never clobbers a harness-level setting.
  std::string trace = "";
};

// Builds a scheduler from its spec string.
inline std::unique_ptr<scheduler_base> make_scheduler(const std::string& spec,
                                                      std::size_t workers,
                                                      bool pin_threads) {
  const scheduler_config cfg{workers, pin_threads};
  if (spec == "ws") return std::make_unique<scheduler>(cfg);
  if (spec == "private") return std::make_unique<private_deque_scheduler>(cfg);
  throw std::invalid_argument("unknown scheduler spec: " + spec);
}

class runtime {
 public:
  explicit runtime(runtime_config cfg = {})
      // The trace spec must land before any member that starts worker
      // threads (tracer::configure is quiescent-only, and sched_'s workers
      // emit idle spans the moment they exist) — hence the comma expression
      // inside the FIRST member initializer.
      : pools_((apply_trace_spec(cfg.trace), make_pool_registry(cfg.alloc))),
        factory_(make_counter_factory(cfg.counter, cfg.snzi_stats,
                                      pools_.get())),
        outsets_(make_outset_factory(cfg.outset, pools_.get())),
        sched_(make_scheduler(cfg.sched, cfg.workers, cfg.pin_threads)),
        engine_(*factory_, *sched_,
                with_plumbing(cfg.engine_options, outsets_.get(),
                              pools_.get())) {}

  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  // Runs `root_body` as the root of a fresh sp-dag to completion (blocking).
  template <typename F>
  void run(F&& root_body) {
    auto [root, final_v] = engine_.make();
    root->body = std::forward<F>(root_body);
    sched_->run(engine_, root, final_v);
  }

  dag_engine& engine() noexcept { return engine_; }
  scheduler_base& sched() noexcept { return *sched_; }
  counter_factory& factory() noexcept { return *factory_; }
  // The factory futures actually use — the engine's, which is the spec
  // factory unless engine_options.outsets overrode it.
  outset_factory& outsets() noexcept { return engine_.outsets(); }
  // The registry hot-path allocations under this runtime draw from — the
  // engine's, which is the spec registry unless engine_options.pools
  // overrode it.
  pool_registry& pools() noexcept { return engine_.pools(); }
  // Quiescent-only slab trim (see dag_engine::trim_pools): legal only
  // between run()s; returns slabs released upstream.
  std::size_t trim_pools() { return engine_.trim_pools(); }
  std::size_t workers() const noexcept { return sched_->worker_count(); }

  // Exports the process tracer's rings as Chrome/Perfetto trace-event JSON.
  // Quiescent-only: call between run()s. Returns 0 on success.
  int dump_trace(const std::string& path) {
    return obs::tracer::instance().dump(path);
  }

 private:
  static void apply_trace_spec(const std::string& spec) {
    if (!spec.empty()) obs::tracer::instance().configure(spec);
  }

  static dag_engine_options with_plumbing(dag_engine_options o,
                                          outset_factory* f,
                                          pool_registry* p) noexcept {
    // Anything set explicitly in engine_options wins over the spec strings.
    if (o.outsets == nullptr) o.outsets = f;
    if (o.pools == nullptr) o.pools = p;
    return o;
  }

  // Declared first so it is destroyed last: every structure below caches
  // object_pool references into it.
  std::unique_ptr<pool_registry> pools_;
  std::unique_ptr<counter_factory> factory_;
  std::unique_ptr<outset_factory> outsets_;
  std::unique_ptr<scheduler_base> sched_;
  dag_engine engine_;
};

}  // namespace spdag
