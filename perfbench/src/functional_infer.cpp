// functional_infer: functional-mode inference of the three Table III networks
// on pubmed and flickr, the only workload where the functional executor does
// the work.
//
// Setup builds the datasets with features (from the run seed), draws the
// weights and compiles the six plans; the executor's pool is sized to the
// CPUs this process may run on. One pass executes every plan functionally
// (core::FunctionalExecutor) and runs its timing simulation, as the Engine's
// functional mode does. Outputs are checked against gnn::ReferenceExecutor
// after the passes, outside every timed section.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/executor.hpp"
#include "core/gnnerator.hpp"
#include "core/runtime.hpp"
#include "gnn/reference.hpp"
#include "gnn/weights.hpp"
#include "graph/datasets.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gnnerator;

/// Largest |accelerator - reference| accepted for a network output. The
/// executor sums in a different order than the reference (blocked GEMMs,
/// shard-ordered aggregation), so outputs agree to rounding, not bitwise.
constexpr float kTolerance = 1e-3f;

struct Input {
  std::string dataset;
  graph::Dataset data;  ///< structure; the features moved into `features`
  gnn::Tensor features;
};

struct Inference {
  std::size_t input = 0;
  gnn::ModelSpec model;
  gnn::ModelWeights weights;
  std::shared_ptr<const core::LoweredModel> plan;
  /// Computed from tensor shapes, not measured.
  std::uint64_t macs = 0;
  std::uint64_t bytes = 0;
};

/// Multiply-accumulates and fp32 bytes touched by one functional execution:
/// every GEMM tile (A, W and output) plus every aggregation edge (one source
/// row slice read, one destination accumulator updated).
void count_work(Inference& inf) {
  for (const core::GemmWork& op : inf.plan->dense_program) {
    inf.macs += op.shape.macs();
    inf.bytes += 4 * (op.shape.m * op.shape.k + op.shape.k * op.shape.n +
                      op.shape.m * op.shape.n);
  }
  for (const core::AggWork& task : inf.plan->graph_program) {
    const std::uint64_t width = task.d_end - task.d_begin;
    inf.macs += static_cast<std::uint64_t>(task.num_edges) * width;
    inf.bytes += 4 * 2 * static_cast<std::uint64_t>(task.num_edges) * width;
  }
}

class FunctionalInfer final : public Workload {
 public:
  explicit FunctionalInfer(const Options& options)
      : options_(options), pool_(host_threads()) {}

  void setup() override {
    inputs_.clear();
    inputs_.reserve(2);
    inferences_.clear();
    for (const char* name : {"pubmed", "flickr"}) {
      graph::Dataset ds = [&] {
        const Scope scope("graph.build");
        return graph::make_dataset_by_name(name, options_.seed, /*with_features=*/true);
      }();
      gnn::Tensor features(ds.spec.num_nodes, ds.spec.feature_dim, std::move(ds.features));
      inputs_.push_back(Input{name, std::move(ds), std::move(features)});
      const Input& input = inputs_.back();
      for (const gnn::LayerKind kind :
           {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
        Inference inf;
        inf.input = inputs_.size() - 1;
        inf.model = core::table3_model(kind, input.data.spec);
        inf.weights = gnn::init_weights(inf.model, options_.seed);
        core::Compiler compiler(input.data.graph, core::AcceleratorConfig::table4(),
                                core::DataflowOptions{});
        {
          const Scope scope("compiler.compile");
          inf.plan = std::make_shared<const core::LoweredModel>(compiler.compile(inf.model));
        }
        count_work(inf);
        inferences_.push_back(std::move(inf));
      }
    }
    outputs_.assign(inferences_.size(), gnn::Tensor{});
    cycles_.assign(inferences_.size(), 0);
  }

  PassResult pass() override {
    const core::FunctionalExecutor executor(&pool_);
    Fingerprint fp;
    PassResult out;
    double ticked = 0.0;
    double skipped = 0.0;
    double macs = 0.0;
    double bytes = 0.0;
    for (std::size_t i = 0; i < inferences_.size(); ++i) {
      const Clock::time_point begin = Clock::now();
      const Inference& inf = inferences_[i];
      core::RuntimeState state(*inf.plan, inputs_[inf.input].features, inf.weights);
      {
        const Scope scope("executor.run");
        executor.execute(*inf.plan, state);
      }
      core::ExecutionResult timing;
      {
        const Scope scope("kernel.run");
        timing = core::Accelerator::run_timing(*inf.plan);
      }
      outputs_[i] = state.final_output();
      cycles_[i] = timing.cycles;
      fp.mix(timing.cycles);
      fp.mix(std::string_view(reinterpret_cast<const char*>(outputs_[i].data()),
                              outputs_[i].size() * sizeof(float)));
      ticked += static_cast<double>(timing.kernel_cycles_ticked);
      skipped += static_cast<double>(timing.kernel_cycles_skipped);
      macs += static_cast<double>(inf.macs);
      bytes += static_cast<double>(inf.bytes);
      out.units += 1.0;
      out.item_s.push_back(seconds_between(begin, Clock::now()));
    }
    out.fingerprint = fp.value();
    out.counts["kernel.cycles_ticked"] = ticked;
    out.counts["kernel.cycles_skipped"] = skipped;
    out.counts["executor.macs"] = macs;
    out.counts["executor.bytes"] = bytes;
    out.counts["compiler.plans"] = static_cast<double>(inferences_.size());
    return out;
  }

  void finish(const PassSummary& summary, RunResult& result) override {
    std::vector<double> sim_ms;
    double rows = 0.0;
    for (std::size_t i = 0; i < inferences_.size(); ++i) {
      const Inference& inf = inferences_[i];
      const Input& input = inputs_[inf.input];
      const gnn::ReferenceExecutor reference(input.data.graph);
      const gnn::Tensor expected = reference.run_model(inf.model, inf.weights, input.features);
      const bool shape_ok = outputs_[i].rows() == expected.rows() &&
                            outputs_[i].cols() == expected.cols();
      const float diff = shape_ok ? gnn::Tensor::max_abs_diff(outputs_[i], expected) : 1.0f;
      const std::string label =
          input.dataset + "." + std::string(gnn::layer_kind_name(inf.model.layers[0].kind));
      result.check(shape_ok && diff <= kTolerance, 1,
                   label + ": max |accelerator - reference| = " + std::to_string(diff));
      result.note("max_abs_diff." + label, diff, "abs");
      check_max_aggregation(inf, reference, result);
      sim_ms.push_back(static_cast<double>(cycles_[i]) /
                       (inf.plan->config.clock_ghz * 1e6));
      rows += static_cast<double>(outputs_[i].rows());
    }
    result.note("executor.threads", static_cast<double>(pool_.parallelism()), "count");
    result.note("infer_nodes_per_s",
                summary.median_rate * rows / static_cast<double>(inferences_.size()), "1/s");
    result.e2e("mean_ms", mean(sim_ms), "ms");
    result.e2e("p99_ms", quantile(sim_ms, 0.99), "ms");
  }

 private:
  /// Max aggregation is order-independent, so every max stage must equal the
  /// reference aggregation of the same input bitwise (re-executed here,
  /// untimed, to get at the stage tensors).
  void check_max_aggregation(const Inference& inf, const gnn::ReferenceExecutor& reference,
                             RunResult& result) {
    const auto is_max = [](const core::AggStagePlan& s) {
      return s.op == gnn::AggregateOp::kMax;
    };
    if (std::none_of(inf.plan->agg_stages.begin(), inf.plan->agg_stages.end(), is_max)) {
      return;
    }
    core::RuntimeState state(*inf.plan, inputs_[inf.input].features, inf.weights);
    core::FunctionalExecutor(&pool_).execute(*inf.plan, state);
    for (const core::AggStagePlan& stage : inf.plan->agg_stages) {
      if (is_max(stage)) {
        const gnn::Tensor expected =
            reference.aggregate(gnn::AggregateOp::kMax, state.tensor(stage.input));
        result.check(state.tensor(stage.output) == expected, 1,
                     inputs_[inf.input].dataset + ": max aggregation of layer " +
                         std::to_string(stage.layer) + " is not bitwise exact");
      }
    }
  }

  Options options_;
  util::ThreadPool pool_;
  std::vector<Input> inputs_;
  std::vector<Inference> inferences_;
  std::vector<gnn::Tensor> outputs_;
  std::vector<std::uint64_t> cycles_;
};

}  // namespace

std::unique_ptr<Workload> make_functional_infer(const Options& options) {
  return std::make_unique<FunctionalInfer>(options);
}

}  // namespace perfbench
