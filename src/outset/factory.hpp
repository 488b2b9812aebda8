#pragma once
// Factories for out-sets, mirroring incounter/factory.hpp.
//
// Future-churn workloads (the fan-out analogue of the paper's Figure 10)
// create one future, and hence one out-set, per iteration, millions of
// times. acquire() constructs an out-set in a cell of the factory's
// registry pool, through an object_bank (src/mem/object_bank.hpp), and
// release() scrubs and destroys it there; waiter records are slab cells
// too. The slab pools' per-thread magazines are the one recycling layer,
// so the benchmarks measure the structure's own cost, not malloc's, and no
// list shared by all workers sits on the per-future path.
//
// totals() cannot walk objects that no longer exist, so release() folds
// each out-set's counters into the releasing thread's row of a
// slot_ledger (src/mem/slot_ledger.hpp): no shared write per release.
//
// Spec strings (accepted with or without the "outset:" prefix):
//   "simple"                     single CAS-list head (the baseline)
//   "tree"                       grow-on-contention tree, fanout 2
//   "tree:<fanout>"              grow-on-contention tree, given fanout (>= 2)
//   "tree:<fanout>:<threshold>"  growth damped by a 1/threshold coin, like
//                                the in-counter's (1 = always; 0 = NEVER
//                                grow — a defined, supported ablation: every
//                                registration stays on the base cache line,
//                                so the tree degenerates to simple_outset
//                                plus tree bookkeeping. Deliberate, not an
//                                error: it isolates the cost of the tree
//                                machinery from the benefit of spreading.)
//   "tree:<fanout>:<threshold>:<scatter>"
//                                deep-broadcast mode: every add dives
//                                <scatter> levels down a random path before
//                                its first CAS, deterministically building
//                                the deep tree that contention would — the
//                                workload for the parallel finalize drain.
//                                scatter must be <= the depth cap (12) and
//                                cannot combine with threshold 0 (the dive
//                                grows unconditionally, contradicting
//                                never-grow).
// Throws std::invalid_argument on anything else.
//
// Out-sets, waiter records and tree node groups are all slab-pool cells
// from the given pool registry (src/mem/).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "mem/object_bank.hpp"
#include "mem/registry.hpp"
#include "mem/slot_ledger.hpp"
#include "outset/outset.hpp"
#include "outset/tree_outset.hpp"

namespace spdag {

namespace detail {
// outset_totals as a slot_ledger row (outset_factory::totals()).
struct outset_totals_row {
  std::atomic<std::uint64_t> adds{0};
  std::atomic<std::uint64_t> add_cas_retries{0};
  std::atomic<std::uint64_t> rejected_adds{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> subtrees_offloaded{0};
  std::atomic<std::uint64_t> group_adds{0};
};
}  // namespace detail

class outset_factory {
 public:
  // `pools` supplies the waiter-record (and, for trees, node-group) cells;
  // null = the process-wide default registry. Borrowed, must outlive the
  // factory.
  explicit outset_factory(pool_registry* pools = nullptr);
  virtual ~outset_factory() = default;

  // Thread-safe: a fresh out-set in a pool cell.
  outset* acquire() { return create_pooled(bank_); }

  // Thread-safe: scrubs `o` (returning any never-delivered waiters to the
  // waiter pool), folds its counters into totals(), and destroys it.
  void release(outset* o);

  // Thread-safe waiter-record pool (one slab cell per registration).
  outset_waiter* acquire_waiter(vertex* consumer, dag_engine* engine);
  void release_waiter(outset_waiter* w) { pool_delete(*waiter_pool_, w); }

  // Short machine name ("simple", "tree:4") and a plot-legend label.
  virtual std::string name() const = 0;
  virtual std::string display_name() const = 0;

  // Out-set cells ever carved by the backing pool. Like waiters_created(),
  // registry-scoped: factories sharing one registry (and out-set geometry)
  // share the count. It stops moving once released cells are recycled.
  std::size_t created() const { return bank_.carved(); }
  // Waiter cells ever carved by the backing pool.
  std::size_t waiters_created() const;

  pool_registry& pools() const noexcept { return *pools_; }

  // Instrumentation summed over every out-set this factory released. An
  // out-set's counts join at its release, so at quiescence, once every
  // future is gone, this covers every out-set the factory made. The
  // headline stat: totals().add_cas_retries / totals().adds is the
  // per-registration retry rate, which stays flat for the tree as consumer
  // counts grow and climbs for the single-cell baseline.
  outset_totals totals() const;

 protected:
  // Pooled construction: emplace the concrete out-set type through the bank.
  virtual outset* create_pooled(object_bank<outset>& bank) = 0;

 private:
  pool_registry* pools_;
  object_pool* waiter_pool_;
  object_bank<outset> bank_;
  slot_ledger<detail::outset_totals_row> released_;
};

// --- concrete factories ---

class simple_outset_factory final : public outset_factory {
 public:
  using outset_factory::outset_factory;
  std::string name() const override { return "simple"; }
  std::string display_name() const override { return "CAS list"; }

 protected:
  outset* create_pooled(object_bank<outset>& bank) override;
};

class tree_outset_factory final : public outset_factory {
 public:
  explicit tree_outset_factory(tree_outset_config cfg = {},
                               pool_registry* pools = nullptr);
  std::string name() const override {
    // Trailing fields are elided when at their defaults, but a non-default
    // scatter forces the threshold field so the name re-parses unambiguously.
    // (Appends, not operator+ chains: gcc 12 -O3 -Wrestrict false positive,
    // GCC PR 105651, fires on the chained form under -Werror.)
    std::string s = "tree:";
    s += std::to_string(cfg_.fanout);
    if (cfg_.grow_threshold != 1 || cfg_.scatter_depth != 0) {
      s += ':';
      s += std::to_string(cfg_.grow_threshold);
    }
    if (cfg_.scatter_depth != 0) {
      s += ':';
      s += std::to_string(cfg_.scatter_depth);
    }
    return s;
  }
  std::string display_name() const override { return "out-set tree"; }
  const tree_outset_config& config() const noexcept { return cfg_; }

 protected:
  outset* create_pooled(object_bank<outset>& bank) override;

 private:
  tree_outset_config cfg_;
  tree_outset::pool_set tree_pools_;
};

// Parses an out-set spec (see file comment). `pools` supplies waiter and
// node-group cells (null = default registry).
std::unique_ptr<outset_factory> make_outset_factory(
    const std::string& spec, pool_registry* pools = nullptr);

// Process-wide simple factory used by engines and futures that were not
// handed an explicit factory (tests constructing futures outside a runtime).
outset_factory& default_outset_factory();

}  // namespace spdag
