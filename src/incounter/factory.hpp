#pragma once
// Pooled factories for dependency counters.
//
// The indegree-2 benchmark (paper Figure 10) creates one finish block — and
// hence one counter — per pair of asyncs, millions of times. The factories
// pool retired counters through an object_bank (src/mem/object_bank.hpp):
// counter objects are registry pool cells recycled over an intrusive stack,
// so allocation cost (the very thing the paper's fixed-SNZI baseline
// suffers from at large depths) is the structure's own, not malloc's — and
// the counters' own storage shows up in the same registry stats and trim
// accounting as every other runtime structure.

#include <cstdint>
#include <memory>
#include <string>

#include "counter/dep_counter.hpp"
#include "incounter/incounter.hpp"
#include "mem/object_bank.hpp"
#include "mem/registry.hpp"

namespace spdag {

class counter_factory {
 public:
  // `pools` backs the counter objects themselves (null = default registry);
  // borrowed, must outlive the factory. Concrete factories taking a
  // registry for their internals (SNZI child pairs) pass the same one here,
  // so a runtime's counters live entirely inside its registry.
  explicit counter_factory(pool_registry* pools = nullptr)
      : bank_(pools != nullptr ? *pools : default_pool_registry(), "counter") {}
  virtual ~counter_factory() = default;

  // Thread-safe: pops a pooled counter (or creates one) reset to `initial`.
  dep_counter* acquire(std::uint32_t initial);

  // Thread-safe: returns a drained counter to the pool.
  void release(dep_counter* c) { bank_.push(c); }

  // Short machine name ("faa", "snzi:4", "dyn:100") and the label the paper's
  // plots use ("Fetch & Add", "SNZI depth=4", "in-counter").
  virtual std::string name() const = 0;
  virtual std::string display_name() const = 0;

  // Counters created over the factory's lifetime (pool effectiveness).
  std::size_t created() const { return bank_.created(); }

  // A fresh, unpooled counter owned by the caller (decorators wrap these —
  // deliberately heap-allocated, NOT a bank cell: the caller's unique_ptr
  // must outlive nothing but itself).
  std::unique_ptr<dep_counter> make_unpooled() { return create(); }

 protected:
  // Unpooled construction (make_unpooled / decorators).
  virtual std::unique_ptr<dep_counter> create() = 0;
  // Pooled construction: emplace the concrete type into the bank.
  virtual dep_counter* create_pooled(object_bank<dep_counter>& bank) = 0;

 private:
  object_bank<dep_counter> bank_;
};

// --- concrete factories ---

class faa_factory final : public counter_factory {
 public:
  std::string name() const override { return "faa"; }
  std::string display_name() const override { return "Fetch & Add"; }

 protected:
  std::unique_ptr<dep_counter> create() override;
  dep_counter* create_pooled(object_bank<dep_counter>& bank) override;
};

class fixed_snzi_factory final : public counter_factory {
 public:
  // `pools` supplies child pairs (null = default registry); the pool is
  // resolved once here, so create() never takes the registry lock. Counters
  // from one factory share it: pooled counters recycled at different times
  // draw from one set of slabs.
  explicit fixed_snzi_factory(int depth, snzi::tree_stats* stats = nullptr,
                              pool_registry* pools = nullptr)
      : counter_factory(pools),
        depth_(depth),
        stats_(stats),
        pair_pool_(&snzi::child_pair_pool(
            pools != nullptr ? *pools : default_pool_registry())) {}
  std::string name() const override { return "snzi:" + std::to_string(depth_); }
  std::string display_name() const override {
    return "SNZI depth=" + std::to_string(depth_);
  }
  int depth() const noexcept { return depth_; }

 protected:
  std::unique_ptr<dep_counter> create() override;
  dep_counter* create_pooled(object_bank<dep_counter>& bank) override;

 private:
  int depth_;
  snzi::tree_stats* stats_;
  object_pool* pair_pool_;
};

class incounter_factory final : public counter_factory {
 public:
  // See fixed_snzi_factory on `pools` / pair-pool sharing.
  explicit incounter_factory(incounter_config cfg = {},
                             pool_registry* pools = nullptr)
      : counter_factory(pools),
        cfg_(cfg),
        pair_pool_(&snzi::child_pair_pool(
            pools != nullptr ? *pools : default_pool_registry())) {}
  std::string name() const override {
    return "dyn:" + std::to_string(cfg_.grow_threshold) +
           (cfg_.reclaim ? "" : ":noreclaim");
  }
  std::string display_name() const override { return "in-counter"; }
  const incounter_config& config() const noexcept { return cfg_; }

 protected:
  std::unique_ptr<dep_counter> create() override;
  dep_counter* create_pooled(object_bank<dep_counter>& bank) override;

 private:
  incounter_config cfg_;
  object_pool* pair_pool_;
};

// Parses a counter spec:
//   "faa"                         fetch-and-add cell
//   "snzi:<depth>"                fixed-depth SNZI tree
//   "dyn[:<threshold>]"           in-counter; default threshold = 25 * cores
//                                 (the paper's p = 1/(25c))
//   "dyn:<threshold>:noreclaim"   in-counter without appendix-B reclamation
//                                 (required when the dag randomizes claim
//                                 order, which voids Lemma 4.6's safety)
// Throws std::invalid_argument on anything else.
// (The fan-out dual — "outset:simple" / "outset:tree[:fanout[:threshold]]"
// specs for future waiter broadcast — is parsed by make_outset_factory in
// src/outset/factory.hpp; the allocation layer both draw from is selected
// by make_pool_registry in src/mem/registry.hpp.)
// `pools` is the registry SNZI child pairs are drawn from (null = default).
std::unique_ptr<counter_factory> make_counter_factory(
    const std::string& spec, snzi::tree_stats* stats = nullptr,
    pool_registry* pools = nullptr);

}  // namespace spdag
