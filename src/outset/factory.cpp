#include "outset/factory.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/thread_slot.hpp"
#include "outset/simple_outset.hpp"
#include "util/cache_aligned.hpp"

namespace spdag {

namespace {

// reset() sink: hand stranded waiter records straight back to the pool.
void repool_waiter(void* ctx, outset_waiter* w) {
  static_cast<outset_factory*>(ctx)->release_waiter(w);
}

// Strict unsigned parse: the whole field must be digits (stoull would
// silently wrap "-1" and ignore trailing garbage).
std::uint64_t parse_spec_u64(const std::string& field,
                             const std::string& spec) {
  if (field.empty() ||
      field.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("bad number in outset spec: " + spec);
  }
  try {
    return std::stoull(field);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad number in outset spec: " + spec);
  }
}

// The counters release() folds into the factory's ledger, and where each
// lands in outset_totals.
using totals_row = detail::outset_totals_row;
constexpr std::pair<slot_ledger<totals_row>::field,
                    std::uint64_t outset_totals::*>
    folded_fields[] = {
        {&totals_row::adds, &outset_totals::adds},
        {&totals_row::add_cas_retries, &outset_totals::add_cas_retries},
        {&totals_row::rejected_adds, &outset_totals::rejected_adds},
        {&totals_row::delivered, &outset_totals::delivered},
        {&totals_row::subtrees_offloaded, &outset_totals::subtrees_offloaded},
        {&totals_row::group_adds, &outset_totals::group_adds},
};

}  // namespace

outset_factory::outset_factory(pool_registry* pools)
    : pools_(pools != nullptr ? pools : &default_pool_registry()),
      waiter_pool_(&outset_waiter_pool(*pools_)),
      bank_(*pools_, "outset") {}

void outset_factory::release(outset* o) {
  o->reset(&repool_waiter, this);
  const outset_totals t = o->totals();
  const int slot = mem::thread_slot();
  for (const auto& [row, field] : folded_fields) {
    released_.add_at(slot, row, t.*field);
  }
  bank_.destroy(o);
}

outset_waiter* outset_factory::acquire_waiter(vertex* consumer,
                                              dag_engine* engine) {
  outset_waiter* w = pool_new<outset_waiter>(*waiter_pool_);
  w->consumer = consumer;
  w->engine = engine;
  return w;
}

std::size_t outset_factory::waiters_created() const {
  return waiter_pool_->stats().carved;
}

outset_totals outset_factory::totals() const {
  outset_totals t;
  for (const auto& [row, field] : folded_fields) t.*field = released_.sum(row);
  return t;
}

outset* simple_outset_factory::create_pooled(object_bank<outset>& bank) {
  return bank.emplace<simple_outset>();
}

tree_outset_factory::tree_outset_factory(tree_outset_config cfg,
                                         pool_registry* pools)
    : outset_factory(pools), cfg_(cfg) {
  // Every tree this factory creates draws its groups, waiters and drains
  // from the factory's registry, so destruction-stranded waiter records land
  // back in the pool acquire_waiter draws from. Resolved once, here.
  cfg_.pools = &this->pools();
  tree_pools_ = tree_outset::resolve_pools(cfg_);
}

outset* tree_outset_factory::create_pooled(object_bank<outset>& bank) {
  return bank.emplace<tree_outset>(cfg_, tree_pools_);
}

std::unique_ptr<outset_factory> make_outset_factory(const std::string& spec,
                                                    pool_registry* pools) {
  std::string s = spec;
  if (s.rfind("outset:", 0) == 0) s = s.substr(7);
  if (s == "simple") return std::make_unique<simple_outset_factory>(pools);
  if (s == "tree") return std::make_unique<tree_outset_factory>(
      tree_outset_config{}, pools);
  if (s.rfind("tree:", 0) == 0) {
    tree_outset_config cfg;
    // "tree:<fanout>[:<threshold>[:<scatter>]]" — split on colons, parse
    // strictly, reject extra fields.
    std::vector<std::string> fields;
    std::string rest = s.substr(5);
    for (std::size_t colon = rest.find(':'); colon != std::string::npos;
         colon = rest.find(':')) {
      fields.push_back(rest.substr(0, colon));
      rest = rest.substr(colon + 1);
    }
    fields.push_back(rest);
    if (fields.size() > 3) {
      throw std::invalid_argument("too many fields in outset spec: " + spec);
    }
    const std::uint64_t fanout = parse_spec_u64(fields[0], spec);
    // The upper bound is a sanity rail: a group (fanout cache lines) is one
    // pool cell, and fan-outs past a few dozen already defeat the point of
    // the tree (spreading adds across lines).
    if (fanout < 2 || fanout > 1024) {
      throw std::invalid_argument("outset tree fanout must be in [2, 1024]: " +
                                  spec);
    }
    cfg.fanout = static_cast<std::uint32_t>(fanout);
    if (fields.size() >= 2) {
      // Damp growth with a 1/threshold coin, the same knob as the
      // in-counter's "dyn:<threshold>". 0 is the defined never-grow
      // ablation (see file comment), not an error.
      cfg.grow_threshold = parse_spec_u64(fields[1], spec);
    }
    if (fields.size() == 3) {
      // Deep-broadcast mode: forced registration depth (see file comment).
      const std::uint64_t scatter = parse_spec_u64(fields[2], spec);
      if (scatter > cfg.max_depth) {
        throw std::invalid_argument(
            "outset tree scatter depth exceeds the depth cap (" +
            std::to_string(cfg.max_depth) + "): " + spec);
      }
      // Scatter dives grow groups unconditionally (forced structure), which
      // would silently void the never-grow guarantee of threshold 0 — the
      // two knobs contradict, so the combination is rejected.
      if (scatter > 0 && cfg.grow_threshold == 0) {
        throw std::invalid_argument(
            "outset tree scatter contradicts the never-grow threshold 0: " +
            spec);
      }
      cfg.scatter_depth = static_cast<std::uint32_t>(scatter);
    }
    return std::make_unique<tree_outset_factory>(cfg, pools);
  }
  throw std::invalid_argument("unknown outset spec: " + spec);
}

outset_factory& default_outset_factory() {
  static simple_outset_factory factory;
  return factory;
}

}  // namespace spdag
