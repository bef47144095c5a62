// Pins the paper reproduction: the 18 Fig. 3 cycle counts (9 benchmark
// points, with and without feature blocking), the 6 Table V HyGCN GCN cycle
// counts (with and without sparsity elimination), and the Fig. 3 Gmean
// speedups over the GPU model against the paper's 8.0x / 4.2x.
//
// Cycle counts are deterministic, so they are pinned exactly: a refactor of
// the compiler, the shard grid or the HyGCN model that moves one cycle fails
// here. An intended model change updates these numbers with review.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "baseline/hygcn_model.hpp"
#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "util/stats.hpp"

namespace gnnerator {
namespace {

struct Fig3Point {
  const char* dataset;
  gnn::LayerKind kind;
  std::uint64_t blocked_cycles;
  std::uint64_t unblocked_cycles;
};

const std::vector<Fig3Point>& fig3_points() {
  static const std::vector<Fig3Point> points = {
      {"cora", gnn::LayerKind::kGcn, 75455, 171945},
      {"cora", gnn::LayerKind::kSageMean, 199077, 233275},
      {"cora", gnn::LayerKind::kSagePool, 145134, 145134},
      {"citeseer", gnn::LayerKind::kGcn, 213043, 1652635},
      {"citeseer", gnn::LayerKind::kSageMean, 603826, 1845710},
      {"citeseer", gnn::LayerKind::kSagePool, 419663, 419663},
      {"pubmed", gnn::LayerKind::kGcn, 248435, 1031366},
      {"pubmed", gnn::LayerKind::kSageMean, 539505, 1192863},
      {"pubmed", gnn::LayerKind::kSagePool, 419301, 419301},
  };
  return points;
}

std::uint64_t gnnerator_cycles(const graph::Dataset& ds, const gnn::ModelSpec& model,
                               bool feature_blocking) {
  core::SimulationRequest request;
  request.dataflow.feature_blocking = feature_blocking;
  return core::simulate_gnnerator(ds, model, request).cycles;
}

TEST(PaperRepro, Fig3CyclesAndGmeanSpeedups) {
  const core::AcceleratorConfig config = core::AcceleratorConfig::table4();
  const baseline::GpuModel gpu;
  std::vector<double> blocked;
  std::vector<double> unblocked;
  for (const Fig3Point& p : fig3_points()) {
    SCOPED_TRACE(std::string(p.dataset) + "-" + std::string(gnn::layer_kind_name(p.kind)));
    const graph::Dataset ds = graph::make_dataset_by_name(p.dataset, 1, false);
    const gnn::ModelSpec model = core::table3_model(p.kind, ds.spec);
    const std::uint64_t with_fb = gnnerator_cycles(ds, model, true);
    const std::uint64_t without_fb = gnnerator_cycles(ds, model, false);
    EXPECT_EQ(with_fb, p.blocked_cycles);
    EXPECT_EQ(without_fb, p.unblocked_cycles);

    const double gpu_ms = gpu.model_time_s(model, ds.spec) * 1e3;
    const auto ms = [&](std::uint64_t cycles) {
      return static_cast<double>(cycles) / (config.clock_ghz * 1e6);
    };
    blocked.push_back(gpu_ms / ms(with_fb));
    unblocked.push_back(gpu_ms / ms(without_fb));
  }

  // The reproduction's own Gmeans, pinned to three decimals: they move only
  // if a cycle count above or the GPU model moves.
  const double gmean_blocked = util::geomean(blocked);
  const double gmean_unblocked = util::geomean(unblocked);
  EXPECT_NEAR(gmean_blocked, 8.528, 5e-4);
  EXPECT_NEAR(gmean_unblocked, 4.204, 5e-4);

  // Against the paper (Fig. 3: 8.0x blocked, 4.2x without feature
  // blocking). Tolerance: 10% relative error on each Gmean. The committed
  // reproduction sits at 6.6% and 0.1%.
  constexpr double kTolerance = 0.10;
  EXPECT_LT(std::abs(gmean_blocked - 8.0) / 8.0, kTolerance);
  EXPECT_LT(std::abs(gmean_unblocked - 4.2) / 4.2, kTolerance);
}

TEST(PaperRepro, Table5HygcnGcnCycles) {
  struct Row {
    const char* dataset;
    std::uint64_t with_elimination;
    std::uint64_t without_elimination;
  };
  const std::vector<Row> rows = {
      {"cora", 196714, 245704},
      {"citeseer", 713576, 1736240},
      {"pubmed", 729474, 1255591},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.dataset);
    const graph::Dataset ds = graph::make_dataset_by_name(row.dataset, 1, false);
    const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, ds.spec);
    baseline::HygcnConfig with;
    baseline::HygcnConfig without;
    without.sparsity_elimination = false;
    EXPECT_EQ(baseline::HygcnModel(with).simulate_cycles(ds.graph, model),
              row.with_elimination);
    EXPECT_EQ(baseline::HygcnModel(without).simulate_cycles(ds.graph, model),
              row.without_elimination);
  }
}

}  // namespace
}  // namespace gnnerator
