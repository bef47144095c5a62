#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "serve/request.hpp"

namespace gnnerator::serve {

/// Policy knobs for elastic fleet sizing. Time-valued knobs are in
/// milliseconds at the server clock; the Autoscaler converts once at
/// construction.
struct AutoscalerOptions {
  /// Bounds on the number of *active* devices the autoscaler maintains.
  std::size_t min_devices = 1;
  std::size_t max_devices = 8;
  /// Rolling-p95 latency target in ms; scale up when the rolling p95 of
  /// completed requests exceeds it. <= 0 disables the latency signal
  /// (queue depth alone drives scaling).
  double target_p95_ms = 0.0;
  /// Evaluation cadence: the autoscaler wakes every interval (an ordinary
  /// DES event, so decisions replay identically across sim_threads values).
  double interval_ms = 0.25;
  /// Minimum time between two fleet mutations.
  double cooldown_ms = 1.0;
  /// Queued requests per active device that triggers a scale-up.
  double up_queue_per_device = 4.0;
  /// Queued *estimated service cycles* per active device that triggers a
  /// scale-up — the cost-weighted backlog signal (Scheduler::queued_cost,
  /// fed by the blended core::CostOracle estimates), which reacts to a few
  /// huge requests where the depth signal sees a short queue. <= 0 disables
  /// it (depth and latency alone drive scaling).
  double up_cost_per_device = 0.0;
  /// Scale down only while depth per device is at or below this ...
  double down_queue_per_device = 1.0;
  /// ... and (with a latency target) the rolling p95 is below
  /// margin * target_p95_ms.
  double down_p95_margin = 0.6;
  /// Completed-request latencies kept in the rolling window.
  std::size_t window = 256;
};

/// Parses "min:max:target-p95-ms" (e.g. "2:8:1.5") into AutoscalerOptions;
/// the remaining knobs keep their defaults. Strict parsing: malformed
/// fields throw CheckError naming the field.
[[nodiscard]] AutoscalerOptions parse_autoscale_spec(std::string_view spec);

/// Deterministic queue-depth + rolling-p95 autoscaler. The server's event
/// loops tick it on its interval and apply the returned action to the
/// fleet (reactivate/append a device on kUp, deactivate the highest-index
/// idle device on kDown). All state is a pure function of the observed
/// completion latencies and tick inputs, so the two serving loops — fed
/// identical streams — always make identical decisions.
class Autoscaler {
 public:
  enum class Action { kNone, kUp, kDown };

  Autoscaler(const AutoscalerOptions& options, double clock_ghz);

  /// Next evaluation tick, in server cycles.
  [[nodiscard]] Cycle next_tick() const { return next_tick_; }

  /// Feeds one completed request's latency into the rolling window.
  void observe(double latency_ms);

  /// One evaluation at `now` (must be >= next_tick()): advances the tick,
  /// and returns the action the fleet should take. Honors the cooldown and
  /// the [min_devices, max_devices] bounds on `active_devices`.
  /// `queued_cost` is the backlog in estimated service cycles (only
  /// consulted when up_cost_per_device > 0).
  Action evaluate(Cycle now, std::size_t queue_depth, std::size_t active_devices,
                  std::uint64_t queued_cost = 0);

  /// p95 over the rolling completion window (0 while empty).
  [[nodiscard]] double rolling_p95() const;

  [[nodiscard]] const AutoscalerOptions& options() const { return options_; }

 private:
  AutoscalerOptions options_;
  Cycle interval_ = 0;
  Cycle cooldown_ = 0;
  Cycle next_tick_ = 0;
  Cycle last_action_at_ = kNoDeadline;  ///< sentinel: no action taken yet
  std::vector<double> window_;          ///< ring buffer of latencies (ms)
  std::size_t window_pos_ = 0;
  bool window_full_ = false;
};

}  // namespace gnnerator::serve
