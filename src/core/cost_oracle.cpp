#include "core/cost_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/compiler.hpp"
#include "util/fnv.hpp"

namespace gnnerator::core {

CostOracle::CostOracle(CostOracleOptions options)
    : options_(options), windows_(options.ewma_alpha) {}

std::uint64_t CostOracle::analytic(const graph::Dataset& dataset, const SimulationRequest& sim,
                                   const std::string& class_key) {
  if (const auto it = memo_.find(class_key); it != memo_.end()) {
    return it->second;
  }
  const std::uint64_t estimate = compute(dataset, sim);
  memo_.emplace(class_key, estimate);
  pipeline_runs_ += 1;
  return estimate;
}

std::optional<std::uint64_t> CostOracle::lookup(std::string_view class_key) const {
  const auto it = memo_.find(class_key);
  if (it == memo_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void CostOracle::prime(const std::string& class_key, std::uint64_t estimate) {
  const auto [it, inserted] = memo_.try_emplace(class_key, estimate);
  (void)it;
  if (inserted) {
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

void CostOracle::observe(const std::string& plan_class, const std::string& device_class,
                         std::uint64_t cycles) {
  windows_.record(plan_class, device_class, cycles);
}

std::uint64_t CostOracle::blend(std::uint64_t analytic_cycles, std::string_view plan_class,
                                std::string_view device_class) const {
  if (!options_.blend_measurements) {
    return analytic_cycles;
  }
  const obs::ExecWindow* w = windows_.find(plan_class, device_class);
  if (w == nullptr || w->observations == 0) {
    return analytic_cycles;
  }
  const double n = static_cast<double>(w->observations);
  const double weight = n / (n + std::max(options_.confidence, 0.0));
  const double blended =
      (1.0 - weight) * static_cast<double>(analytic_cycles) + weight * w->ewma_cycles;
  return saturate_cycles(blended);
}

std::optional<std::uint64_t> CostOracle::measured(std::string_view plan_class,
                                                 std::string_view device_class) const {
  if (!options_.blend_measurements) {
    return std::nullopt;
  }
  const obs::ExecWindow* w = windows_.find(plan_class, device_class);
  if (w == nullptr || w->observations == 0) {
    return std::nullopt;
  }
  return w->last_cycles;
}

std::uint64_t CostOracle::state_fingerprint() const {
  util::Fnv1a fp(util::kFnvShortBasis);
  fp.mix(memo_.size());
  for (const auto& [key, estimate] : memo_) {
    fp.mix_string(key);
    fp.mix(estimate);
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
