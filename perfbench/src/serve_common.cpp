#include "serve_common.hpp"

#include <vector>

namespace perfbench {

using namespace gnnerator;

ServeSummary summarize(const serve::ServeReport& report) {
  std::vector<double> latency_ms;
  std::size_t met = 0;
  for (const serve::Outcome& o : report.outcomes) {
    if (o.shed || o.failed) {
      continue;
    }
    const double ms = o.latency_ms(report.clock_ghz);
    latency_ms.push_back(ms);
    if (o.applied_slo_ms <= 0.0 || ms <= o.applied_slo_ms) {
      ++met;
    }
  }
  ServeSummary s;
  s.mean_ms = mean(latency_ms);
  s.p50_ms = quantile(latency_ms, 0.5);
  s.p99_ms = quantile(latency_ms, 0.99);
  s.slo_attainment = report.outcomes.empty()
                         ? 0.0
                         : static_cast<double>(met) / static_cast<double>(report.outcomes.size());
  return s;
}

void verify_report(const serve::ServeReport& report, std::size_t submitted,
                   const std::string& workload, RunResult& result) {
  const serve::MetricsSummary& m = report.metrics;
  result.verify(report.outcomes.size() == submitted &&
                    m.completed + m.shed + m.failed == submitted,
                submitted,
                workload + ": completed + shed + failed != submitted (" +
                    std::to_string(m.completed) + " + " + std::to_string(m.shed) + " + " +
                    std::to_string(m.failed) + " vs " + std::to_string(submitted) + ")");
  std::size_t acausal = 0;
  for (const serve::Outcome& o : report.outcomes) {
    const bool served = !o.shed && !o.failed;
    if (o.completion < o.arrival ||
        (served && (o.dispatch < o.arrival || o.completion < o.dispatch))) {
      ++acausal;
    }
  }
  result.verify(acausal == 0, acausal,
                workload + ": " + std::to_string(acausal) + " outcomes break arrival <= "
                               "dispatch <= completion");
}

void mix_report(Fingerprint& fp, const serve::ServeReport& report) {
  for (const serve::Outcome& o : report.outcomes) {
    fp.mix(o.id);
    fp.mix(o.arrival);
    fp.mix(o.dispatch);
    fp.mix(o.completion);
    fp.mix(static_cast<std::uint64_t>(o.device));
    fp.mix(static_cast<std::uint64_t>(o.batch_size));
    fp.mix(static_cast<std::uint64_t>((o.shed ? 1u : 0u) | (o.failed ? 2u : 0u)));
    fp.mix(static_cast<std::uint64_t>(o.retries));
    fp.mix(static_cast<std::uint64_t>(o.requeues));
    fp.mix(o.service_cycles);
    fp.mix(o.class_key);
    fp.mix(o.klass);
  }
  fp.mix(report.end_cycle);
  fp.mix(report.events);
  fp.mix(static_cast<std::uint64_t>(report.max_queue_depth));
  fp.mix(report.feature_cache.hits);
  fp.mix(report.feature_cache.misses);
  fp.mix(report.feature_cache.bytes_saved);
}

void add_report_counts(const serve::ServeReport& report, std::map<std::string, double>& counts) {
  counts["serve.events"] = static_cast<double>(report.events);
  counts["serve.max_queue_depth"] = static_cast<double>(report.max_queue_depth);
  counts["serve.mean_queue_depth"] = report.mean_queue_depth;
  counts["serve.mean_batch"] = report.metrics.mean_batch_size;
  counts["serve.retries"] = static_cast<double>(report.metrics.retries);
  counts["feature_cache.hit_rate"] = report.feature_cache.hit_rate();
  counts["feature_cache.bytes_saved"] = static_cast<double>(report.feature_cache.bytes_saved);
}

void replay_metrics_reduce(const serve::ServeReport& report) {
  const Scope scope("metrics.reduce");
  serve::Metrics metrics(report.clock_ghz);
  metrics.add_all(report.outcomes, nullptr);
  const serve::MetricsSummary summary = metrics.summary(report.end_cycle);
  (void)summary;
}

}  // namespace perfbench
