#include "core/cost_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/compiler.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace gnnerator::core {

CostOracle::CostOracle(CostOracleOptions options)
    : options_(options), windows_(options.ewma_alpha) {}

CostOracle::Id CostOracle::intern(std::string_view key) {
  if (const auto it = ids_.find(key); it != ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<Id>(keys_.size());
  ids_.emplace(std::string(key), id);
  keys_.emplace_back(key);
  prior_.push_back(0);
  windows_by_identity_.emplace_back();
  return id;
}

std::uint64_t CostOracle::analytic(const graph::Dataset& dataset, const SimulationRequest& sim,
                                   Id identity) {
  if (prior_[identity] == 0) {
    prime(identity, compute(dataset, sim));
  }
  return prior_[identity];
}

std::optional<std::uint64_t> CostOracle::lookup(Id identity) const {
  if (prior_[identity] == 0) {
    return std::nullopt;
  }
  return prior_[identity];
}

void CostOracle::prime(Id identity, std::uint64_t estimate) {
  GNNERATOR_CHECK_MSG(estimate > 0, "analytic priors are at least one cycle");
  if (prior_[identity] == 0) {
    prior_[identity] = estimate;
    pipeline_runs_ += 1;
  }
}

std::uint64_t CostOracle::compute(const graph::Dataset& dataset,
                                  const SimulationRequest& sim) const {
  Compiler compiler(dataset.graph, sim.config, sim.dataflow);
  compiler.set_tail_calibration(options_.tail_calibration);
  return saturate_cycles(compiler.estimate_cycles(sim.model));
}

std::uint64_t CostOracle::saturate_cycles(double cycles) {
  if (!(cycles >= 1.0)) {
    return 1;  // NaN and sub-cycle estimates both clamp to the floor
  }
  // 2^64 and 2^63 are exactly representable as doubles; any value at or
  // above them would overflow the cast (llround is UB from 2^63 up).
  if (cycles >= 18446744073709551616.0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  if (cycles >= 9223372036854775808.0) {
    return static_cast<std::uint64_t>(cycles);
  }
  return static_cast<std::uint64_t>(std::llround(cycles));
}

std::uint64_t CostOracle::query(Id plan_class, Id identity, Mode mode) const {
  const std::uint64_t prior = prior_[identity];
  GNNERATOR_CHECK_MSG(prior != 0, "cost query before the prior of '" << key(identity)
                                                                     << "' was priced");
  if (mode == Mode::kPrior) {
    return prior;
  }
  const obs::ExecWindow* w = window(plan_class, identity);
  if (mode == Mode::kExact) {
    return w != nullptr ? w->last_cycles : prior;
  }
  return blend(prior, w);
}

void CostOracle::observe(Id plan_class, Id identity, std::uint64_t cycles) {
  for (const auto& [plan, index] : windows_by_identity_[identity]) {
    if (plan == plan_class) {
      windows_.record_at(index, cycles);
      return;
    }
  }
  windows_by_identity_[identity].emplace_back(
      plan_class, windows_.record(key(plan_class), key(identity), cycles));
}

void CostOracle::observe(std::string_view plan_class, std::string_view exec_identity,
                         std::uint64_t cycles) {
  const Id plan = intern(plan_class);
  observe(plan, intern(exec_identity), cycles);
}

const obs::ExecWindow* CostOracle::window(Id plan_class, Id identity) const {
  if (!options_.blend_measurements) {
    return nullptr;
  }
  for (const auto& [plan, index] : windows_by_identity_[identity]) {
    if (plan == plan_class) {
      return &windows_.at(index);
    }
  }
  return nullptr;
}

std::uint64_t CostOracle::blend(std::uint64_t analytic_cycles, const obs::ExecWindow* w) const {
  if (w == nullptr) {
    return analytic_cycles;
  }
  const double n = static_cast<double>(w->observations);
  const double weight = n / (n + std::max(options_.confidence, 0.0));
  const double blended =
      (1.0 - weight) * static_cast<double>(analytic_cycles) + weight * w->ewma_cycles;
  return saturate_cycles(blended);
}

std::uint64_t CostOracle::blend(std::uint64_t analytic_cycles, std::string_view plan_class,
                                std::string_view exec_identity) const {
  return blend(analytic_cycles, options_.blend_measurements
                                    ? windows_.find(plan_class, exec_identity)
                                    : nullptr);
}

std::optional<std::uint64_t> CostOracle::measured(std::string_view plan_class,
                                                 std::string_view exec_identity) const {
  const obs::ExecWindow* w =
      options_.blend_measurements ? windows_.find(plan_class, exec_identity) : nullptr;
  if (w == nullptr) {
    return std::nullopt;
  }
  return w->last_cycles;
}

std::uint64_t CostOracle::state_fingerprint() const {
  // The analytic memo in sorted key order: id order is interning order,
  // which the fingerprint must not depend on.
  std::vector<Id> priced;
  priced.reserve(pipeline_runs_);
  for (Id id = 0; id < keys_.size(); ++id) {
    if (prior_[id] != 0) {
      priced.push_back(id);
    }
  }
  std::sort(priced.begin(), priced.end(), [&](Id a, Id b) { return key(a) < key(b); });
  util::Fnv1a fp(util::kFnvShortBasis);
  fp.mix(priced.size());
  for (const Id id : priced) {
    fp.mix_string(key(id));
    fp.mix(prior_[id]);
  }
  const auto snapshot = windows_.snapshot();
  fp.mix(snapshot.size());
  for (const obs::ExecWindow& w : snapshot) {
    fp.mix_string(w.plan_class);
    fp.mix_string(w.device_class);
    fp.mix(w.observations);
    fp.mix(w.last_cycles);
    fp.mix(std::bit_cast<std::uint64_t>(w.ewma_cycles));
    fp.mix(w.min_cycles);
    fp.mix(w.max_cycles);
  }
  return fp.value();
}

}  // namespace gnnerator::core
