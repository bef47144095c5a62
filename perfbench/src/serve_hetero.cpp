// serve_hetero: a streamed full-graph CSV trace over cora, citeseer and
// pubmed, served by a heterogeneous fleet (2 baseline + 2 nextgen devices)
// under the affinity policy with two SLO tiers.
//
// Arrivals follow a diurnal profile whose peak exceeds the fleet's capacity
// and whose mean does not, so the backlog builds and drains each period
// instead of growing without bound. Setup writes the trace and a warm-up
// trace from the run seed and serves the warm-up, so the plan cache and the
// cost oracle start warm: the measured pass is the event loop, HEFT
// placement and cost-oracle queries, with no compiles or kernel runs.

#include <memory>
#include <string>
#include <vector>

#include "core/cost_oracle.hpp"
#include "graph/datasets.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "serve_common.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gnnerator;

constexpr double kClockGhz = 1.0;
/// Requests per measured pass and in the warm-up trace.
constexpr std::size_t kRequests = 12000;
constexpr std::size_t kWarmupRequests = 400;
/// Peak arrival rate and diurnal swing: the mean rate is
/// kPeakRps / (1 + kAmplitude).
constexpr double kPeakRps = 26'000.0;
constexpr double kAmplitude = 1.0;
constexpr double kPeriodMs = 100.0;

class ServeHetero final : public Workload {
 public:
  explicit ServeHetero(const Options& options) : options_(options) {
    const std::string stem = options.out_dir + "/serve_hetero-seed" + std::to_string(options.seed);
    trace_path_ = stem + ".csv";
    warmup_path_ = stem + "-warmup.csv";
  }

  void setup() override {
    serve::TraceSpec spec;
    spec.num_requests = kRequests;
    spec.rate_rps = kPeakRps;
    spec.clock_ghz = kClockGhz;
    spec.seed = options_.seed;
    spec.datasets = {"cora", "citeseer", "pubmed"};
    spec.classes = {"interactive", "bulk"};
    spec.diurnal_period_ms = kPeriodMs;
    spec.diurnal_amplitude = kAmplitude;
    (void)serve::write_synthetic_trace(trace_path_, spec);
    spec.num_requests = kWarmupRequests;
    spec.seed = options_.seed ^ 0x5eed5eedULL;
    (void)serve::write_synthetic_trace(warmup_path_, spec);

    serve::ServerOptions server_options;
    server_options.fleet = serve::parse_fleet_spec("2xbaseline,2xnextgen");
    server_options.classes = {serve::RequestClass{"interactive", 2.0, 1, 1.0},
                              serve::RequestClass{"bulk", 20.0, 0, 1.0}};
    server_options.policy = serve::SchedulingPolicy::kAffinity;
    server_options.clock_ghz = kClockGhz;
    server_options.sim_threads = 1;
    server_ = std::make_unique<serve::Server>(server_options);
    for (const char* name : {"cora", "citeseer", "pubmed"}) {
      graph::Dataset ds = [&] {
        const Scope scope("graph.build");
        return graph::make_dataset_by_name(name, options_.seed, /*with_features=*/false);
      }();
      server_->add_dataset(std::move(ds));
    }
    serve::StreamingTraceWorkload warmup(warmup_path_, base_, kClockGhz);
    (void)server_->serve(warmup);
  }

  PassResult pass() override {
    serve::StreamingTraceWorkload workload(trace_path_, base_, kClockGhz);
    const core::PlanCacheStats cache_before = server_->cache_stats();
    const std::uint64_t allocs_before = heap_allocations();
    {
      const Scope scope("serve.loop");
      report_ = server_->serve(workload);
    }
    const double allocs = static_cast<double>(heap_allocations() - allocs_before);
    const core::PlanCacheStats cache_after = server_->cache_stats();

    PassResult out;
    out.units = static_cast<double>(report_.outcomes.size());
    Fingerprint fp;
    mix_report(fp, report_);
    out.fingerprint = fp.value();
    add_report_counts(report_, out.counts);
    const auto hits = static_cast<double>(cache_after.hits - cache_before.hits);
    const auto misses = static_cast<double>(cache_after.misses - cache_before.misses);
    out.counts["plan_cache.misses"] = misses;
    out.counts["plan_cache.hit_rate"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    out.counts["cost_oracle.pipeline_runs"] = static_cast<double>(server_->cost_oracle_runs());
    out.counts["serve.allocs_per_request"] = allocs / out.units;
    return out;
  }

  void after_pass(RunResult& result) override {
    verify_report(report_, kRequests, "serve_hetero", result);
  }

  void finish(const PassSummary& summary, RunResult& result) override {
    (void)summary;
    const ServeSummary s = summarize(report_);
    result.e2e("mean_ms", s.mean_ms, "ms");
    result.e2e("p99_ms", s.p99_ms, "ms");
    result.note("p50_ms", s.p50_ms, "ms");
    result.note("slo_attainment", s.slo_attainment, "ratio");
    result.note("completed", static_cast<double>(report_.metrics.completed), "count");
    result.note("shed", static_cast<double>(report_.metrics.shed), "count");
    result.note("failed", static_cast<double>(report_.metrics.failed), "count");
    result.note("fleet_utilization", report_.fleet_utilization(), "ratio");
    result.note("sim_duration_ms", report_.duration_ms(), "ms");
    for (const serve::ClassMetricsSummary& c : report_.metrics.classes) {
      result.note("slo_attainment." + c.name, c.slo_attainment, "ratio");
      result.note("p99_ms." + c.name, c.p99_ms, "ms");
    }
  }

  void replay(RunResult& result) override {
    {
      serve::StreamingTraceWorkload workload(trace_path_, base_, kClockGhz);
      const Scope scope("workload.stream");
      std::vector<serve::Request> batch;
      while (workload.pull(4096, batch) > 0) {
        batch.clear();
      }
    }
    replay_metrics_reduce(report_);
    result.layer("cost_oracle.query_ns", replay_oracle_queries(), "ns");
  }

 private:
  /// measured() + blend() over every (plan class, execution identity) pair
  /// the oracle has observed, repeated for at least 50 ms; ns per query.
  double replay_oracle_queries() const {
    const core::CostOracle& oracle = server_->cost_oracle();
    const std::vector<obs::ExecWindow> pairs = oracle.windows().snapshot();
    if (pairs.empty()) {
      return 0.0;
    }
    const Scope scope("cost_oracle.query");
    std::uint64_t queries = 0;
    std::uint64_t sink = 0;
    const Clock::time_point begin = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.05) {
      for (const obs::ExecWindow& w : pairs) {
        sink += oracle.measured(w.plan_class, w.device_class).value_or(0);
        sink += oracle.blend(w.last_cycles, w.plan_class, w.device_class);
        queries += 2;
      }
      elapsed = seconds_between(begin, Clock::now());
    }
    return sink == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(queries);
  }

  Options options_;
  std::string trace_path_;
  std::string warmup_path_;
  core::SimulationRequest base_;
  std::unique_ptr<serve::Server> server_;
  serve::ServeReport report_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_hetero(const Options& options) {
  return std::make_unique<ServeHetero>(options);
}

}  // namespace perfbench
