// paper_sweep: the cold design-space sweep an architect runs, in timing mode.
//
// One pass covers Fig. 3 (nine points, feature blocking on and off), Table V
// (GCN on the three Table II datasets against the HyGCN model), Fig. 5
// (three datasets x hidden 16/128/1024 x four accelerator configs) and flickr
// at the default and the autotuned dataflow (Table II graphs keep 1x1 shard
// grids; flickr does not). Every pass starts from an empty plan cache, so the
// compiler and ShardGrid construction do most of the host work; points that
// lower to an identical plan within a pass hit the cache.
//
// The run seed generates every dataset. Seed 1 is the seed of the committed
// Fig. 3 / Table V reproductions (bench/fig3_speedup, bench/table5_hygcn).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "baseline/hygcn_model.hpp"
#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/gnnerator.hpp"
#include "core/plan_cache.hpp"
#include "graph/datasets.hpp"
#include "shard/shard_grid.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gnnerator;

constexpr double kPaperFig3Gmean = 8.0;
constexpr double kPaperFig3GmeanUnblocked = 4.2;
/// Table V, GNNerator (with blocking) over HyGCN: cora, citeseer, pubmed.
constexpr double kPaperTable5[] = {3.8, 3.2, 2.3};
const char* const kDatasets[] = {"cora", "citeseer", "pubmed", "flickr"};
constexpr std::size_t kFlickr = 3;

enum class Role { kFig3Blocked, kFig3Unblocked, kTable5, kFig5, kFlickr };

struct Point {
  Role role = Role::kFig5;
  std::size_t dataset = 0;
  gnn::ModelSpec model;
  core::AcceleratorConfig config = core::AcceleratorConfig::table4();
  core::DataflowOptions dataflow;
};

struct PointResult {
  std::uint64_t cycles = 0;
  double estimate = 0.0;
  std::uint64_t hygcn_cycles = 0;
};

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const Options& options) : options_(options) {}

  void setup() override {
    datasets_.clear();
    fingerprints_.clear();
    for (const char* name : kDatasets) {
      {
        const Scope scope("graph.build");
        datasets_.push_back(
            graph::make_dataset_by_name(name, options_.seed, /*with_features=*/false));
      }
      fingerprints_.push_back(core::graph_fingerprint(datasets_.back().graph));
    }
    build_points();
  }

  PassResult pass() override {
    core::PlanCache cache(/*capacity=*/256);
    const baseline::HygcnModel hygcn;
    Fingerprint fp;
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;
    plans_.assign(points_.size(), nullptr);
    results_.assign(points_.size(), PointResult{});
    const std::uint64_t allocs_before = heap_allocations();
    PassResult out;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Clock::time_point begin = Clock::now();
      const Point& p = points_[i];
      const graph::Dataset& ds = datasets_[p.dataset];
      core::Compiler compiler(ds.graph, p.config, p.dataflow);
      core::PlanSignature signature;
      {
        const Scope scope("compiler.resolve");
        signature = compiler.resolve(p.model);
      }
      const std::string key =
          core::plan_cache_key(fingerprints_[p.dataset], p.model, p.config, p.dataflow, signature);
      plans_[i] = cache.get_or_compile(key, [&] {
        const Scope scope("compiler.compile");
        return std::make_shared<const core::LoweredModel>(compiler.compile(p.model));
      });
      PointResult& r = results_[i];
      {
        const Scope scope("compiler.estimate");
        r.estimate = compiler.estimate_cycles(p.model);
      }
      core::ExecutionResult run;
      {
        const Scope scope("kernel.run");
        run = core::Accelerator::run_timing(*plans_[i]);
      }
      r.cycles = run.cycles;
      ticked += run.kernel_cycles_ticked;
      skipped += run.kernel_cycles_skipped;
      if (p.role == Role::kTable5 && p.dataflow.feature_blocking) {
        const Scope scope("baseline.hygcn");
        r.hygcn_cycles = hygcn.simulate_cycles(ds.graph, p.model);
      }
      out.item_s.push_back(seconds_between(begin, Clock::now()));
      fp.mix(r.cycles);
      fp.mix(r.estimate);
      fp.mix(r.hygcn_cycles);
      fp.mix(run.stats.to_string());
    }
    const double allocs = static_cast<double>(heap_allocations() - allocs_before);
    const core::PlanCacheStats stats = cache.stats();
    out.units = static_cast<double>(points_.size());
    out.fingerprint = fp.value();
    out.counts["compiler.plans"] = static_cast<double>(stats.misses);
    out.counts["plan_cache.misses"] = static_cast<double>(stats.misses);
    out.counts["plan_cache.hit_rate"] =
        static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses);
    out.counts["kernel.cycles_ticked"] = static_cast<double>(ticked);
    out.counts["kernel.cycles_skipped"] = static_cast<double>(skipped);
    out.counts["sweep.allocs_per_point"] = allocs / static_cast<double>(points_.size());
    return out;
  }

  void finish(const PassSummary& summary, RunResult& result) override {
    check_kernel_against_reference(result);

    std::vector<double> sim_ms;
    std::vector<double> estimate_err;
    std::vector<double> blocked;
    std::vector<double> unblocked;
    std::vector<double> table5;
    const baseline::GpuModel gpu;
    const baseline::HygcnModel hygcn;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      const PointResult& r = results_[i];
      const double ms = static_cast<double>(r.cycles) / (p.config.clock_ghz * 1e6);
      sim_ms.push_back(ms);
      estimate_err.push_back(std::abs(r.estimate - static_cast<double>(r.cycles)) /
                             static_cast<double>(r.cycles));
      if (p.role == Role::kFig3Blocked || p.role == Role::kFig3Unblocked) {
        const double gpu_ms = gpu.model_time_s(p.model, datasets_[p.dataset].spec) * 1e3;
        (p.role == Role::kFig3Blocked ? blocked : unblocked).push_back(gpu_ms / ms);
      }
      if (p.role == Role::kTable5 && p.dataflow.feature_blocking) {
        const double speedup = hygcn.milliseconds(r.hygcn_cycles) / ms;
        table5.push_back(std::abs(speedup - kPaperTable5[p.dataset]) / kPaperTable5[p.dataset]);
        result.note("table5.speedup." + std::string(kDatasets[p.dataset]), speedup, "x");
      }
    }
    const double gmean = util::geomean(blocked);
    result.note("sweep_points_per_s", summary.median_rate, "1/s");
    result.note("fig3.gmean_speedup", gmean, "x");
    result.note("fig3.gmean_speedup_unblocked", util::geomean(unblocked), "x");
    result.note("fig3_gmean_err", std::abs(gmean - kPaperFig3Gmean) / kPaperFig3Gmean, "ratio");
    result.note("fig3_gmean_err_unblocked",
                std::abs(util::geomean(unblocked) - kPaperFig3GmeanUnblocked) /
                    kPaperFig3GmeanUnblocked,
                "ratio");
    double table5_err = 0.0;
    for (const double e : table5) {
      table5_err += e / static_cast<double>(table5.size());
    }
    result.note("table5_err", table5_err, "ratio");
    result.note("compiler.estimate_err_median", median(estimate_err), "ratio");
    result.e2e("mean_ms", mean(sim_ms), "ms");
    result.e2e("p99_ms", quantile(sim_ms, 0.99), "ms");
  }

  void replay(RunResult& result) override {
    // ShardGrid construction happens inside Compiler::compile; rebuild every
    // grid the last pass's plans were lowered with.
    (void)result;
    for (const std::shared_ptr<const core::LoweredModel>& plan : unique_plans()) {
      for (const core::AggStagePlan& stage : plan->agg_stages) {
        const Scope scope("shard.grid");
        const shard::ShardGrid grid(*plan->agg_graph, stage.sizing.nodes_per_shard);
        (void)grid.num_nonempty_shards();
      }
    }
  }

 private:
  void build_points() {
    points_.clear();
    const auto add = [this](Role role, std::size_t ds, gnn::LayerKind kind, std::size_t hidden,
                            core::AcceleratorConfig config, core::DataflowOptions dataflow) {
      Point p;
      p.role = role;
      p.dataset = ds;
      p.model = core::table3_model(kind, datasets_[ds].spec, hidden);
      p.config = config;
      p.dataflow = dataflow;
      points_.push_back(std::move(p));
    };
    const core::AcceleratorConfig base = core::AcceleratorConfig::table4();
    core::DataflowOptions blocked;
    core::DataflowOptions unblocked;
    unblocked.feature_blocking = false;
    for (std::size_t ds = 0; ds < 3; ++ds) {
      for (const gnn::LayerKind kind :
           {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
        add(Role::kFig3Blocked, ds, kind, 16, base, blocked);
        add(Role::kFig3Unblocked, ds, kind, 16, base, unblocked);
      }
    }
    for (std::size_t ds = 0; ds < 3; ++ds) {
      add(Role::kTable5, ds, gnn::LayerKind::kGcn, 16, base, blocked);
      add(Role::kTable5, ds, gnn::LayerKind::kGcn, 16, base, unblocked);
    }
    // Fig. 5 holds the paper's B = 64 across variants (bench/fig5_scaling).
    core::DataflowOptions fixed_block;
    fixed_block.block_size = 64;
    for (const std::size_t hidden : {16, 128, 1024}) {
      for (std::size_t ds = 0; ds < 3; ++ds) {
        for (const core::AcceleratorConfig& config :
             {base, base.with_double_graph_memory(), base.with_double_dense_compute(),
              base.with_double_bandwidth()}) {
          add(Role::kFig5, ds, gnn::LayerKind::kGcn, hidden, config, fixed_block);
        }
      }
    }
    core::DataflowOptions autotuned;
    autotuned.autotune = true;
    add(Role::kFlickr, kFlickr, gnn::LayerKind::kGcn, 16, base, blocked);
    add(Role::kFlickr, kFlickr, gnn::LayerKind::kGcn, 16, base, autotuned);
  }

  /// Event-driven kernel == reference kernel (cycles and every counter) on
  /// the Fig. 3 points of the last pass.
  void check_kernel_against_reference(RunResult& result) const {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      if (p.role != Role::kFig3Blocked && p.role != Role::kFig3Unblocked) {
        continue;
      }
      const core::ExecutionResult fast = core::Accelerator::run_timing(*plans_[i]);
      const core::ExecutionResult slow =
          core::Accelerator::run_timing(*plans_[i], nullptr, core::TimingKernel::kReference);
      result.check(fast.cycles == slow.cycles && fast.cycles == results_[i].cycles &&
                       fast.stats.counters() == slow.stats.counters(),
                   1, "event-driven kernel differs from the reference kernel at point " +
                          std::to_string(i));
    }
  }

  std::vector<std::shared_ptr<const core::LoweredModel>> unique_plans() const {
    std::vector<std::shared_ptr<const core::LoweredModel>> plans;
    for (const auto& plan : plans_) {
      if (std::find(plans.begin(), plans.end(), plan) == plans.end()) {
        plans.push_back(plan);
      }
    }
    return plans;
  }

  Options options_;
  std::vector<graph::Dataset> datasets_;
  std::vector<std::string> fingerprints_;
  std::vector<Point> points_;
  std::vector<std::shared_ptr<const core::LoweredModel>> plans_;
  std::vector<PointResult> results_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep(const Options& options) {
  return std::make_unique<PaperSweep>(options);
}

}  // namespace perfbench
