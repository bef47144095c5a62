// serve_sampled: degree-skewed k-hop sampled queries (fanout 10/5, GCN and
// GraphSAGE) over pubmed, served with dynamic batching, mixed-batch plan
// fusion and an 8 MB pre-sampling feature cache, through a crash/recover
// fault plan, with a full obs::Recorder attached. Every pass ends with a
// Chrome-trace and registry export.
//
// Every pass builds a fresh Server, so the feature cache starts empty and
// the plan cache cold: sampling, cold compiles of many small fused plans and
// the obs export dominate, while affinity placement is bypassed.

#include <memory>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/sample.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/recorder.hpp"
#include "serve/faults.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "serve_common.hpp"
#include "util/prng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gnnerator;

constexpr double kClockGhz = 1.0;
constexpr const char* kDataset = "pubmed";
constexpr const char* kFanout = "10/5";
/// Queries per measured pass and their Poisson arrival rate.
constexpr std::size_t kQueries = 20000;
constexpr double kRateRps = 130'000.0;
constexpr double kSloMs = 5.0;
constexpr double kCacheMb = 8.0;
/// Device 1 crashes 60 ms into the ~150 ms trace and is back 0.2 ms later:
/// its in-flight batch is aborted and retried, while the outage touches far
/// fewer than 1% of the queries, so p99 stays a steady-state figure.
constexpr const char* kFaultPlan = "crash@60ms:dev1,recover@60.2ms:dev1";

class ServeSampled final : public Workload {
 public:
  explicit ServeSampled(const Options& options) : options_(options) {}

  void setup() override {
    {
      const Scope scope("graph.build");
      dataset_ = std::make_unique<graph::Dataset>(
          graph::make_dataset_by_name(kDataset, options_.seed, /*with_features=*/false));
    }
    options_template_ = serve::ServerOptions{};
    serve::ServerOptions& o = options_template_;
    o.num_devices = 2;
    o.policy = serve::SchedulingPolicy::kDynamicBatch;
    o.limits.batch_window = serve::ms_to_cycles(0.1, kClockGhz);
    o.limits.max_batch = 16;
    o.clock_ghz = kClockGhz;
    o.default_slo_ms = kSloMs;
    o.sim_threads = 1;
    serve::FeatureCacheOptions cache;
    cache.budget_bytes = static_cast<std::uint64_t>(kCacheMb * (1 << 20));
    o.feature_cache = cache;
    o.faults = serve::parse_fault_plan(kFaultPlan, kClockGhz);
  }

  PassResult pass() override {
    obs::RecorderOptions recorder_options;
    recorder_options.engine_spans = true;
    const auto recorder = std::make_shared<obs::Recorder>(recorder_options);
    serve::ServerOptions server_options = options_template_;
    server_options.recorder = recorder;
    serve::Server server(server_options);
    server.add_dataset(*dataset_);
    serve::SampledQueryWorkload workload = make_workload();

    const std::uint64_t allocs_before = heap_allocations();
    {
      const Scope scope("serve.loop");
      report_ = server.serve(workload);
    }
    const double allocs = static_cast<double>(heap_allocations() - allocs_before);
    std::string trace;
    std::string registry;
    {
      const Scope scope("obs.export");
      trace = obs::chrome_trace_string(*recorder);
      registry = recorder->registry().text_snapshot();
    }

    PassResult out;
    out.units = static_cast<double>(report_.outcomes.size());
    Fingerprint fp;
    mix_report(fp, report_);
    fp.mix(trace);
    fp.mix(registry);
    out.fingerprint = fp.value();
    add_report_counts(report_, out.counts);
    const core::PlanCacheStats cache = server.cache_stats();
    const auto lookups = static_cast<double>(cache.hits + cache.misses);
    out.counts["plan_cache.misses"] = static_cast<double>(cache.misses);
    out.counts["plan_cache.hit_rate"] =
        lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0;
    out.counts["compiler.plans"] = static_cast<double>(cache.misses);
    out.counts["cost_oracle.pipeline_runs"] = static_cast<double>(server.cost_oracle_runs());
    out.counts["serve.allocs_per_request"] = allocs / out.units;
    out.counts["obs.trace_bytes"] = static_cast<double>(trace.size());
    out.counts["obs.dropped"] = static_cast<double>(recorder->dropped());
    return out;
  }

  void after_pass(RunResult& result) override {
    verify_report(report_, kQueries, "serve_sampled", result);
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
    result.note("retries", static_cast<double>(report_.metrics.retries), "count");
    result.note("mean_batch", report_.metrics.mean_batch_size, "count");
    result.note("feature_cache.hit_rate", report_.feature_cache.hit_rate(), "ratio");
    result.note("fleet_utilization", report_.fleet_utilization(), "ratio");
    result.note("sim_duration_ms", report_.duration_ms(), "ms");
  }

  void replay(RunResult& result) override {
    // Frontier sampling as Server::serve does it per admitted query: one
    // sample_frontier call per arrival over the workload's own seeds.
    serve::SampledQueryWorkload workload = make_workload();
    const std::vector<serve::Request> arrivals = workload.initial_arrivals();
    util::Prng prng(options_.seed);
    {
      const Scope scope("graph.sample");
      for (const serve::Request& r : arrivals) {
        const graph::SampledSubgraph sub =
            graph::sample_frontier(dataset_->graph, {static_cast<graph::NodeId>(r.seed)},
                                   graph::parse_fanout(r.fanout), prng);
        (void)sub;
      }
    }
    result.layer("graph.sample_calls", static_cast<double>(arrivals.size()), "count");
    replay_metrics_reduce(report_);
  }

 private:
  serve::SampledQueryWorkload make_workload() const {
    std::vector<serve::SampledQueryWorkload::Entry> entries;
    for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
      serve::RequestTemplate t;
      t.sim.dataset = dataset_->spec.name;
      t.sim.model = core::table3_model(kind, dataset_->spec);
      entries.push_back(serve::SampledQueryWorkload::Entry{t, dataset_.get(), kFanout});
    }
    return serve::SampledQueryWorkload(std::move(entries), kRateRps, kQueries, kClockGhz,
                                       options_.seed);
  }

  Options options_;
  std::unique_ptr<graph::Dataset> dataset_;
  serve::ServerOptions options_template_;
  serve::ServeReport report_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_sampled(const Options& options) {
  return std::make_unique<ServeSampled>(options);
}

}  // namespace perfbench
