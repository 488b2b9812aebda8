#include "incounter/factory.hpp"

#include <stdexcept>

#include "counter/faa_counter.hpp"
#include "counter/fixed_snzi_counter.hpp"
#include "util/topology.hpp"

namespace spdag {

std::unique_ptr<dep_counter> faa_factory::create() {
  return std::make_unique<faa_counter>();
}

dep_counter* faa_factory::create_pooled(object_bank<dep_counter>& bank) {
  return bank.emplace<faa_counter>();
}

std::unique_ptr<dep_counter> fixed_snzi_factory::create() {
  return std::make_unique<fixed_snzi_counter>(depth_, 0, stats_, tree_pool_);
}

dep_counter* fixed_snzi_factory::create_pooled(object_bank<dep_counter>& bank) {
  return bank.emplace<fixed_snzi_counter>(depth_, 0u, stats_, tree_pool_);
}

std::unique_ptr<dep_counter> incounter_factory::create() {
  incounter_config cfg = cfg_;
  cfg.pair_pool = pair_pool_;
  return std::make_unique<incounter>(0, cfg);
}

dep_counter* incounter_factory::create_pooled(object_bank<dep_counter>& bank) {
  incounter_config cfg = cfg_;
  cfg.pair_pool = pair_pool_;
  return bank.emplace<incounter>(0u, cfg);
}

std::unique_ptr<counter_factory> make_counter_factory(const std::string& spec,
                                                      snzi::tree_stats* stats,
                                                      pool_registry* pools) {
  if (spec == "faa") return std::make_unique<faa_factory>(pools);
  if (spec.rfind("snzi:", 0) == 0) {
    const int depth = std::stoi(spec.substr(5));
    return std::make_unique<fixed_snzi_factory>(depth, stats, pools);
  }
  if (spec == "dyn" || spec.rfind("dyn:", 0) == 0) {
    incounter_config cfg;
    cfg.stats = stats;
    if (spec.size() > 4) {
      std::string rest = spec.substr(4);
      const auto colon = rest.find(':');
      if (colon != std::string::npos) {
        if (rest.substr(colon + 1) != "noreclaim") {
          throw std::invalid_argument("unknown counter spec: " + spec);
        }
        cfg.reclaim = false;
        rest = rest.substr(0, colon);
      }
      // Strict parse: stoull would silently wrap "dyn:-1" to 2^64-1.
      if (rest.empty() ||
          rest.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("bad threshold in counter spec: " + spec);
      }
      cfg.grow_threshold = std::stoull(rest);
    } else {
      // Paper section 5: p := 1 / (25 c) where c is the core count.
      cfg.grow_threshold = 25 * hardware_core_count();
    }
    return std::make_unique<incounter_factory>(cfg, pools);
  }
  throw std::invalid_argument("unknown counter spec: " + spec);
}

}  // namespace spdag
