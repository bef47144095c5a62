#include "obs/exec_window.hpp"

#include <algorithm>

namespace gnnerator::obs {

std::uint32_t ExecWindowLog::record(std::string_view plan_class, std::string_view device_class,
                                   std::uint64_t cycles) {
  auto it = index_.find(std::pair(plan_class, device_class));
  if (it == index_.end()) {
    const auto index = static_cast<std::uint32_t>(windows_.size());
    it = index_.emplace(std::pair(std::string(plan_class), std::string(device_class)), index)
             .first;
    ExecWindow& w = windows_.emplace_back();
    w.plan_class = plan_class;
    w.device_class = device_class;
  }
  record_at(it->second, cycles);
  return it->second;
}

void ExecWindowLog::record_at(std::uint32_t index, std::uint64_t cycles) {
  ExecWindow& w = windows_[index];
  if (w.observations == 0) {
    w.ewma_cycles = static_cast<double>(cycles);
    w.min_cycles = cycles;
    w.max_cycles = cycles;
  } else {
    w.ewma_cycles += alpha_ * (static_cast<double>(cycles) - w.ewma_cycles);
    w.min_cycles = std::min(w.min_cycles, cycles);
    w.max_cycles = std::max(w.max_cycles, cycles);
  }
  w.last_cycles = cycles;
  w.observations += 1;
  total_observations_ += 1;
}

std::vector<ExecWindow> ExecWindowLog::snapshot() const {
  std::vector<ExecWindow> out;
  out.reserve(windows_.size());
  for (const auto& [key, index] : index_) {
    out.push_back(windows_[index]);
  }
  return out;
}

const ExecWindow* ExecWindowLog::find(std::string_view plan_class,
                                      std::string_view device_class) const {
  const auto it = index_.find(std::pair(plan_class, device_class));
  return it == index_.end() ? nullptr : &windows_[it->second];
}

}  // namespace gnnerator::obs
