#pragma once

// Helpers shared by the two serving workloads: the per-pass output checks,
// the simulated-clock latency and SLO metrics, the report fingerprint, and
// the per-layer counts read from a ServeReport.

#include <cstddef>
#include <map>
#include <string>

#include "harness.hpp"
#include "serve/metrics.hpp"

namespace perfbench {

/// Simulated-clock summary of one serve pass.
struct ServeSummary {
  /// Latency of completed requests from their scheduled arrival, sim ms.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Share of submitted requests that completed within their tier SLO;
  /// shed and failed requests count as misses.
  double slo_attainment = 0.0;
};

[[nodiscard]] ServeSummary summarize(const gnnerator::serve::ServeReport& report);

/// Conservation (completed + shed + failed == submitted, one record per
/// request) and causality (arrival <= dispatch <= completion for completed
/// requests, arrival <= completion for every record). Failures are reported
/// against the pass's `submitted` requests.
void verify_report(const gnnerator::serve::ServeReport& report, std::size_t submitted,
                   const std::string& workload, RunResult& result);

/// Mixes every simulated field of every outcome plus the run totals.
void mix_report(Fingerprint& fp, const gnnerator::serve::ServeReport& report);

/// Per-layer counts every serve pass reports (events, queue depth, batch
/// size, retries, feature cache).
void add_report_counts(const gnnerator::serve::ServeReport& report,
                       std::map<std::string, double>& counts);

/// Times serve::Metrics reduction of `report`'s outcomes under a
/// "metrics.reduce" span (a replay of what Server::serve does at end of run).
void replay_metrics_reduce(const gnnerator::serve::ServeReport& report);

}  // namespace perfbench
