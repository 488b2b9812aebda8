#pragma once
// Factories for dependency counters.
//
// The indegree-2 benchmark (paper Figure 10) creates one finish block, and
// hence one counter, per pair of asyncs, millions of times. acquire()
// constructs a counter in a cell of the factory's registry pool, through an
// object_bank (src/mem/object_bank.hpp), and release() destroys it there. A
// released cell parks in the releasing thread's magazine, so the slab pools'
// per-thread magazines are the one recycling layer for counters, as for
// every other runtime object: no list shared by all workers sits on the
// per-finish path, and a trim can release the counters' slabs.
//
// What a counter costs per acquire is therefore its own construction. A
// fixed-depth SNZI counter builds its whole tree each time, as the paper's
// baseline "allocates for each finish block": one cell of a per-depth pool
// holds every node below the base (snzi/fixed_tree.hpp).

#include <cstdint>
#include <memory>
#include <string>

#include "counter/dep_counter.hpp"
#include "incounter/incounter.hpp"
#include "mem/object_bank.hpp"
#include "mem/registry.hpp"
#include "snzi/fixed_tree.hpp"

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

  // Thread-safe: a fresh counter in a pool cell, reset to `initial`.
  dep_counter* acquire(std::uint32_t initial) {
    dep_counter* c = create_pooled(bank_);
    c->reset(initial);
    return c;
  }

  // Thread-safe: destroys a drained counter and returns its cell.
  void release(dep_counter* c) { bank_.destroy(c); }

  // Short machine name ("faa", "snzi:4", "dyn:100") and the label the paper's
  // plots use ("Fetch & Add", "SNZI depth=4", "in-counter").
  virtual std::string name() const = 0;
  virtual std::string display_name() const = 0;

  // Cells the backing pool ever carved (registry-scoped: factories sharing
  // one registry and counter geometry share the count). It stops moving
  // once released counters' cells are recycled.
  std::size_t created() const { return bank_.carved(); }

  // A fresh, unpooled counter owned by the caller (decorators wrap these;
  // deliberately heap-allocated, NOT a pool cell: the caller's unique_ptr
  // must outlive nothing but itself).
  std::unique_ptr<dep_counter> make_unpooled() { return create(); }

 protected:
  // Unpooled construction (make_unpooled / decorators).
  virtual std::unique_ptr<dep_counter> create() = 0;
  // Pooled construction: emplace the concrete type through the bank.
  virtual dep_counter* create_pooled(object_bank<dep_counter>& bank) = 0;

 private:
  object_bank<dep_counter> bank_;
};

// --- concrete factories ---

class faa_factory final : public counter_factory {
 public:
  using counter_factory::counter_factory;
  std::string name() const override { return "faa"; }
  std::string display_name() const override { return "Fetch & Add"; }

 protected:
  std::unique_ptr<dep_counter> create() override;
  dep_counter* create_pooled(object_bank<dep_counter>& bank) override;
};

class fixed_snzi_factory final : public counter_factory {
 public:
  // `pools` supplies the trees' node cells (null = default registry); the
  // per-depth pool is resolved once here, so create() never takes the
  // registry lock. Throws std::invalid_argument for a depth outside
  // [0, 24].
  explicit fixed_snzi_factory(int depth, snzi::tree_stats* stats = nullptr,
                              pool_registry* pools = nullptr)
      : counter_factory(pools),
        depth_(depth),
        stats_(stats),
        tree_pool_(snzi::fixed_tree_pool(
            pools != nullptr ? *pools : default_pool_registry(), depth)) {}
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
  object_pool* tree_pool_;
};

class incounter_factory final : public counter_factory {
 public:
  // `pools` supplies child pairs (null = default registry); the pool is
  // resolved once here, so create() never takes the registry lock.
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
// `pools` is the registry counters and their SNZI nodes are drawn from
// (null = default).
std::unique_ptr<counter_factory> make_counter_factory(
    const std::string& spec, snzi::tree_stats* stats = nullptr,
    pool_registry* pools = nullptr);

}  // namespace spdag
