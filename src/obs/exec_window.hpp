#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gnnerator::obs {

/// Measured execution history of one (plan class, device class) pair: the
/// device cycles the memoized engine execution actually took, folded into an
/// EWMA. This is the calibration feed the ROADMAP's measurement-driven cost
/// oracle needs — an analytic estimate can be blended against `ewma_cycles`
/// once a pair has observations.
struct ExecWindow {
  /// Plan-compatibility class key (Outcome::class_key; the fuse class for
  /// sampled batches — the fused execution is what occupied the device).
  std::string plan_class;
  /// Who executed it. In the Recorder's log: the device class name
  /// ("legacy" on a classless homogeneous fleet). In core::CostOracle's log:
  /// the execution identity, i.e. the plan-class key under the executing
  /// device's config, so identically configured classes share one window.
  std::string device_class;
  std::uint64_t observations = 0;
  /// Most recent measured execution, in device cycles.
  std::uint64_t last_cycles = 0;
  /// Exponentially weighted moving average of the measurements.
  double ewma_cycles = 0.0;
  std::uint64_t min_cycles = 0;
  std::uint64_t max_cycles = 0;
};

/// Accumulates ExecWindows across serve runs (the Recorder owns one; it is
/// not reset by begin_run — calibration history is long-lived, like the plan
/// cache). Deterministic: backed by std::map, so snapshot order is the
/// lexicographic (plan class, device class) order regardless of insertion.
class ExecWindowLog {
 public:
  explicit ExecWindowLog(double ewma_alpha = 0.25) : alpha_(ewma_alpha) {}

  /// Folds one measurement into the pair's window (created on first sight)
  /// and returns the window's index, stable for the log's lifetime.
  std::uint32_t record(std::string_view plan_class, std::string_view device_class,
                       std::uint64_t cycles);
  /// Folds one measurement into the window at `index` (from record()).
  void record_at(std::uint32_t index, std::uint64_t cycles);
  [[nodiscard]] const ExecWindow& at(std::uint32_t index) const { return windows_[index]; }

  /// All pairs, sorted by (plan class, device class).
  [[nodiscard]] std::vector<ExecWindow> snapshot() const;
  /// Null when the pair has never been observed.
  [[nodiscard]] const ExecWindow* find(std::string_view plan_class,
                                       std::string_view device_class) const;
  [[nodiscard]] std::size_t size() const { return windows_.size(); }
  [[nodiscard]] std::uint64_t total_observations() const { return total_observations_; }

 private:
  /// Transparent (plan class, device class) order: pre-C++23 std::pair has no
  /// heterogeneous comparisons, so string_view probes need an explicit
  /// comparator to avoid building two temporary strings per lookup.
  struct PairLess {
    using is_transparent = void;
    template <typename A, typename B, typename C, typename D>
    bool operator()(const std::pair<A, B>& lhs, const std::pair<C, D>& rhs) const {
      const std::string_view lf{lhs.first};
      const std::string_view rf{rhs.first};
      if (lf != rf) {
        return lf < rf;
      }
      return std::string_view{lhs.second} < std::string_view{rhs.second};
    }
  };

  double alpha_;
  /// Windows in creation order; a window's position is its index.
  std::vector<ExecWindow> windows_;
  /// (plan class, device class) -> index into windows_, in sorted order.
  std::map<std::pair<std::string, std::string>, std::uint32_t, PairLess> index_;
  std::uint64_t total_observations_ = 0;
};

}  // namespace gnnerator::obs
