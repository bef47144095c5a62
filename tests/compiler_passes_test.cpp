// Regression pins for the pass-based compiler. The pre-refactor monolith
// (src/core/compiler/legacy.cpp) served as differential ground truth while
// the pass pipeline soaked; it is gone now, and the same guarantees are
// pinned as golden snapshots instead: per-stage decision digests across the
// full option matrix, cycle-exact simulation results on a real dataset,
// and LoweredModel::describe() golden text. Plus: pass-named failures,
// signature resolution, and plan-cache key unification on resolved choices.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/engine.hpp"
#include "core/gnnerator.hpp"
#include "core/plan_cache.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/units.hpp"

namespace gnnerator::core {
namespace {

graph::Graph test_graph(std::uint64_t seed = 1, graph::NodeId n = 150, std::size_t e = 900) {
  util::Prng prng(seed);
  return graph::symmetrized(graph::power_law(n, e, 1.6, prng));
}

AcceleratorConfig tiny_config() {
  AcceleratorConfig c = AcceleratorConfig::table4();
  c.graph.feature_scratch_bytes = 128 * util::kKiB;
  c.graph.edge_buffer_bytes = 16 * util::kKiB;
  c.dense.input_buffer_bytes = 128 * util::kKiB;
  c.dense.weight_buffer_bytes = 128 * util::kKiB;
  c.dense.output_buffer_bytes = 128 * util::kKiB;
  c.dense.array.rows = 16;
  c.dense.array.cols = 16;
  return c;
}

gnn::ModelSpec model_for(gnn::LayerKind kind) {
  switch (kind) {
    case gnn::LayerKind::kGcn:
      return gnn::ModelSpec::gcn(48, 12, 5);
    case gnn::LayerKind::kSageMean:
      return gnn::ModelSpec::graphsage(48, 12, 5);
    case gnn::LayerKind::kSagePool:
      return gnn::ModelSpec::graphsage_pool(48, 12, 5);
  }
  return {};
}

gnn::LayerKind kind_by_name(const std::string& name) {
  for (const gnn::LayerKind kind :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    if (name == gnn::layer_kind_name(kind)) {
      return kind;
    }
  }
  GNNERATOR_CHECK_MSG(false, "unknown layer kind '" << name << "'");
  return gnn::LayerKind::kGcn;
}

/// The option matrix the legacy-differential test used to sweep: every
/// fully-pinned decision set (no autotune).
std::vector<DataflowOptions> option_matrix() {
  std::vector<DataflowOptions> option_sets;
  option_sets.push_back(DataflowOptions{});  // paper defaults
  {
    DataflowOptions o;
    o.block_size = 16;
    option_sets.push_back(o);
  }
  {
    DataflowOptions o;
    o.feature_blocking = false;
    option_sets.push_back(o);
  }
  {
    DataflowOptions o;
    o.sparsity_elimination = true;
    option_sets.push_back(o);
  }
  {
    DataflowOptions o;
    o.traversal = shard::Traversal::kSourceStationary;
    option_sets.push_back(o);
  }
  {
    DataflowOptions o;
    o.traversal = shard::Traversal::kDestStationary;
    o.block_size = 8;
    option_sets.push_back(o);
  }
  return option_sets;
}

/// Everything the runtime's behaviour hangs off, in one diffable line:
/// resolved per-stage choices, token/program shapes, predicted totals.
std::string plan_digest(const LoweredModel& plan, const PlanSignature& signature) {
  std::ostringstream os;
  os << format_signature(signature) << " | tokens=" << plan.token_names.size()
     << " dense=" << plan.dense_program.size() << " graph=" << plan.graph_program.size()
     << " dram=" << plan.predicted_dram_bytes << " macs=" << plan.total_macs
     << " edges=" << plan.total_edge_visits;
  return os.str();
}

/// Golden pin of the whole option matrix (successor of the retired
/// legacy-compiler differential): any change to a resolved decision, token
/// table, program length or predicted total shows up as a one-line diff.
TEST(CompilerPasses, OptionMatrixMatchesGoldenDigests) {
  struct Golden {
    const char* kind;
    std::size_t option_set;
    const char* digest;
  };
  const std::vector<Golden> goldens = {
      {"gcn", 0,
       "L0.S0:B16,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=6 dense=4 graph=4 dram=96168 macs=95400 edges=5928"},
      {"gcn", 1,
       "L0.S0:B16,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=6 dense=4 graph=4 dram=96168 macs=95400 edges=5928"},
      {"gcn", 2,
       "L0.S0:B48,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=4 dense=4 graph=2 dram=72456 macs=95400 edges=2964"},
      {"gcn", 3,
       "L0.S0:B16,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=6 dense=4 graph=4 dram=96168 macs=95400 edges=5928"},
      {"gcn", 4,
       "L0.S0:B16,n150,S1,src,pipe,stream;L1.S0:B12,n150,S1,src,pipe,stream | tokens=6 dense=4 graph=4 dram=96168 macs=95400 edges=5928"},
      {"gcn", 5,
       "L0.S0:B8,n150,S1,dst,pipe,stream;L1.S0:B8,n150,S1,dst,pipe,stream | tokens=10 dense=8 graph=8 dram=143592 macs=95400 edges=11856"},
      {"gsage", 0,
       "L0.S0:B16,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=6 dense=8 graph=4 dram=134712 macs=190800 edges=5928"},
      {"gsage", 1,
       "L0.S0:B16,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=6 dense=8 graph=4 dram=134712 macs=190800 edges=5928"},
      {"gsage", 2,
       "L0.S0:B48,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=4 dense=8 graph=2 dram=111000 macs=190800 edges=2964"},
      {"gsage", 3,
       "L0.S0:B16,n150,S1,dst,pipe,stream;L1.S0:B12,n150,S1,dst,pipe,stream | tokens=6 dense=8 graph=4 dram=134712 macs=190800 edges=5928"},
      {"gsage", 4,
       "L0.S0:B16,n150,S1,src,pipe,stream;L1.S0:B12,n150,S1,src,pipe,stream | tokens=6 dense=8 graph=4 dram=134712 macs=190800 edges=5928"},
      {"gsage", 5,
       "L0.S0:B8,n150,S1,dst,pipe,stream;L1.S0:B8,n150,S1,dst,pipe,stream | tokens=10 dense=12 graph=8 dram=182136 macs=190800 edges=11856"},
      {"gsage-max", 0,
       "L0.S1:B12,n150,S1,dst,pipe,stream;L1.S1:B5,n150,S1,dst,pipe,stream | tokens=6 dense=10 graph=2 dram=132076 macs=216150 edges=2964"},
      {"gsage-max", 1,
       "L0.S1:B12,n150,S1,dst,pipe,stream;L1.S1:B5,n150,S1,dst,pipe,stream | tokens=6 dense=10 graph=2 dram=132076 macs=216150 edges=2964"},
      {"gsage-max", 2,
       "L0.S1:B12,n150,S1,dst,pipe,stream;L1.S1:B5,n150,S1,dst,pipe,stream | tokens=6 dense=10 graph=2 dram=132076 macs=216150 edges=2964"},
      {"gsage-max", 3,
       "L0.S1:B12,n150,S1,dst,pipe,stream;L1.S1:B5,n150,S1,dst,pipe,stream | tokens=6 dense=10 graph=2 dram=132076 macs=216150 edges=2964"},
      {"gsage-max", 4,
       "L0.S1:B12,n150,S1,src,pipe,stream;L1.S1:B5,n150,S1,src,pipe,stream | tokens=6 dense=10 graph=2 dram=132076 macs=216150 edges=2964"},
      {"gsage-max", 5,
       "L0.S1:B8,n150,S1,dst,pipe,stream;L1.S1:B5,n150,S1,dst,pipe,stream | tokens=8 dense=14 graph=3 dram=172732 macs=216150 edges=4446"},
  };

  const auto g = test_graph();
  const std::vector<DataflowOptions> option_sets = option_matrix();
  ASSERT_EQ(goldens.size(), option_sets.size() * 3);
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(std::string(golden.kind) + " option set " +
                 std::to_string(golden.option_set));
    const gnn::ModelSpec model = model_for(kind_by_name(golden.kind));
    Compiler compiler(g, tiny_config(), option_sets[golden.option_set]);
    const PlanSignature signature = compiler.resolve(model);
    const LoweredModel plan = compiler.compile(model);
    EXPECT_EQ(plan_digest(plan, signature), golden.digest);
  }
}

/// Cycle-exact golden pin on a real dataset across all three network
/// families: the end-to-end guarantee the legacy differential used to give.
/// A cycle delta here without an intended compiler/timing change is a
/// regression; an intended change updates the goldens *with review*.
TEST(CompilerPasses, DefaultPlansSimulateToGoldenCycles) {
  struct Golden {
    const char* kind;
    std::uint64_t cycles;
    std::uint64_t dram_bytes;
  };
  const std::vector<Golden> goldens = {
      {"gcn", 75455, 16249088},
      {"gsage", 199077, 32036816},
      {"gsage-max", 145134, 32536308},
  };
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const AcceleratorConfig config = AcceleratorConfig::table4();
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.kind);
    const gnn::ModelSpec model = table3_model(kind_by_name(golden.kind), ds.spec);
    const LoweredModel plan = compile_model(ds.graph, model, config, DataflowOptions{});
    EXPECT_EQ(plan.predicted_dram_bytes, golden.dram_bytes);
    const ExecutionResult result = Accelerator::run_timing(plan);
    EXPECT_EQ(result.cycles, golden.cycles);
  }
}

/// Aggregation stages of one plan that resolve to the same shard size share
/// one ShardGrid; stages with different sizes get their own.
TEST(CompilerPasses, StagesShareGridPerShardSize) {
  const AcceleratorConfig config = AcceleratorConfig::table4();
  {
    const graph::Dataset cora = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
    const LoweredModel plan = compile_model(
        cora.graph, table3_model(gnn::LayerKind::kGcn, cora.spec), config, DataflowOptions{});
    ASSERT_EQ(plan.agg_stages.size(), 2u);
    EXPECT_EQ(plan.agg_stages[0].sizing.nodes_per_shard,
              plan.agg_stages[1].sizing.nodes_per_shard);
    EXPECT_EQ(plan.agg_stages[0].grid, plan.agg_stages[1].grid);
  }
  {
    const graph::Dataset citeseer =
        graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false);
    DataflowOptions unblocked;
    unblocked.feature_blocking = false;
    const LoweredModel plan = compile_model(
        citeseer.graph, table3_model(gnn::LayerKind::kGcn, citeseer.spec), config, unblocked);
    ASSERT_EQ(plan.agg_stages.size(), 2u);
    EXPECT_EQ(plan.agg_stages[0].sizing.nodes_per_shard, 407u);
    EXPECT_EQ(plan.agg_stages[1].sizing.nodes_per_shard, 3327u);
    EXPECT_NE(plan.agg_stages[0].grid, plan.agg_stages[1].grid);
    EXPECT_EQ(plan.agg_stages[0].grid->nodes_per_shard(), 407u);
    EXPECT_EQ(plan.agg_stages[1].grid->nodes_per_shard(), 3327u);
  }
}

/// Infeasible configurations fail with the offending pass named.
TEST(CompilerPasses, InfeasibleConfigNamesTheFailingPass) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(2048, 12, 5);
  AcceleratorConfig config = tiny_config();
  config.graph.feature_scratch_bytes = 4 * util::kKiB;  // < one node at B=2048
  DataflowOptions options;
  options.feature_blocking = false;
  try {
    (void)compile_model(g, model, config, options);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("pass 'shard-sizing'"), std::string::npos)
        << e.what();
  }
}

/// Compiler::resolve (analysis passes only) reports exactly the per-stage
/// choices a full compile lowers with.
TEST(CompilerPasses, ResolveMatchesCompiledDecisions) {
  const auto g = test_graph();
  for (const auto kind :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    const gnn::ModelSpec model = model_for(kind);
    Compiler compiler(g, tiny_config(), DataflowOptions{});
    const PlanSignature signature = compiler.resolve(model);
    const LoweredModel plan = compiler.compile(model);
    ASSERT_EQ(signature.size(), plan.agg_stages.size());
    for (std::size_t i = 0; i < signature.size(); ++i) {
      SCOPED_TRACE("stage " + std::to_string(i));
      const StageChoice& c = signature[i];
      const AggStagePlan& s = plan.agg_stages[i];
      EXPECT_EQ(c.layer, s.layer);
      EXPECT_EQ(c.stage_index, s.stage_index);
      EXPECT_EQ(c.block, s.block);
      EXPECT_EQ(c.nodes_per_shard, s.sizing.nodes_per_shard);
      EXPECT_EQ(c.grid_dim, s.sizing.grid_dim);
      EXPECT_EQ(c.traversal, s.traversal);
      EXPECT_EQ(c.pipelined_consume, s.pipelined_consume);
      EXPECT_EQ(c.edges_cached, s.edges_cached);
    }
  }
}

/// The analytic job-size oracle (Compiler::estimate_cycles) is positive,
/// deterministic, and orders models the way their real simulated cycles
/// order, which is all SJF serving needs from it.
TEST(CompilerPasses, EstimateCyclesOrdersModelsLikeSimulation) {
  const graph::Dataset cora = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::Dataset pubmed =
      graph::make_dataset_by_name("pubmed", 1, /*with_features=*/false);
  const AcceleratorConfig config = AcceleratorConfig::table4();

  Compiler cora_compiler(cora.graph, config, DataflowOptions{});
  Compiler pubmed_compiler(pubmed.graph, config, DataflowOptions{});
  const gnn::ModelSpec cora_gcn = table3_model(gnn::LayerKind::kGcn, cora.spec);
  const gnn::ModelSpec pubmed_sage = table3_model(gnn::LayerKind::kSageMean, pubmed.spec);

  const double light = cora_compiler.estimate_cycles(cora_gcn);
  const double heavy = pubmed_compiler.estimate_cycles(pubmed_sage);
  EXPECT_GT(light, 0.0);
  EXPECT_LT(light, heavy) << "oracle must rank cora-gcn below pubmed-gsage";
  EXPECT_DOUBLE_EQ(light, cora_compiler.estimate_cycles(cora_gcn)) << "deterministic";
}

/// Golden-text pin of LoweredModel::describe(): a plan regression (block,
/// grid, traversal, residency, hand-off, token wiring) must show up as a
/// readable one-line diff here, not as an opaque cycle delta.
TEST(CompilerPasses, DescribeMatchesGoldenText) {
  const auto g = test_graph();

  const LoweredModel gcn =
      compile_model(g, gnn::ModelSpec::gcn(48, 12, 5), tiny_config(), DataflowOptions{});
  EXPECT_EQ(gcn.describe(),
            "plan for model 'gcn' on 150 nodes / 1482 edges (self loops added)\n"
            "options as compiled: blocking=on block=16 traversal=auto sparsity=off autotune=off\n"
            "  L0.S0 aggregate gcn-norm dims=48: block=16 x3, shard n=150 S=1, "
            "dst-stationary, edges=streamed, hand-off=pipelined, 3 column tokens\n"
            "  L0.S1 dense 48->12: graph-first consumer of L0.S0, psums=resident, "
            "W-slice=resident\n"
            "  L1.S0 aggregate gcn-norm dims=12: block=12 x1, shard n=150 S=1, "
            "dst-stationary, edges=streamed, hand-off=pipelined, 1 column token\n"
            "  L1.S1 dense 12->5: graph-first consumer of L1.S0, psums=resident, "
            "W-slice=resident\n"
            "tokens: 6 (4 column, 0 interval, 2 layer)\n"
            "program: 4 dense ops, 4 graph tasks\n"
            "predicted: 96168 DRAM bytes, 95400 MACs, 5928 edge visits\n");

  const LoweredModel mean = compile_model(g, gnn::ModelSpec::graphsage(48, 12, 5),
                                          tiny_config(), DataflowOptions{});
  EXPECT_EQ(mean.describe(),
            "plan for model 'gsage' on 150 nodes / 1482 edges (self loops added)\n"
            "options as compiled: blocking=on block=16 traversal=auto sparsity=off autotune=off\n"
            "  L0.S0 aggregate mean dims=48: block=16 x3, shard n=150 S=1, "
            "dst-stationary, edges=streamed, hand-off=pipelined, 3 column tokens\n"
            "  L0.S1 dense 96->12 (concat h=48): graph-first consumer of L0.S0, "
            "psums=resident, W-slice=resident, W(h)=resident\n"
            "  L1.S0 aggregate mean dims=12: block=12 x1, shard n=150 S=1, "
            "dst-stationary, edges=streamed, hand-off=pipelined, 1 column token\n"
            "  L1.S1 dense 24->5 (concat h=12): graph-first consumer of L1.S0, "
            "psums=resident, W-slice=resident, W(h)=resident\n"
            "tokens: 6 (4 column, 0 interval, 2 layer)\n"
            "program: 8 dense ops, 4 graph tasks\n"
            "predicted: 134712 DRAM bytes, 190800 MACs, 5928 edge visits\n");

  const LoweredModel pool = compile_model(g, gnn::ModelSpec::graphsage_pool(48, 12, 5),
                                          tiny_config(), DataflowOptions{});
  EXPECT_EQ(pool.describe(),
            "plan for model 'gsage-max' on 150 nodes / 1482 edges (self loops added)\n"
            "options as compiled: blocking=on block=16 traversal=auto sparsity=off autotune=off\n"
            "  L0.S0 dense 48->12: dense-first producer of L0.S1, psums=per-chunk, "
            "W-slice=streamed\n"
            "  L0.S1 aggregate max dims=12: block=12 x1, shard n=150 S=1, "
            "dst-stationary, edges=streamed, hand-off=pipelined, 1 column token, "
            "1 interval token in\n"
            "  L0.S2 dense 60->12 (concat h=48): graph-first consumer of L0.S1, "
            "psums=resident, W-slice=resident, W(h)=resident\n"
            "  L1.S0 dense 12->5: dense-first producer of L1.S1, psums=per-chunk, "
            "W-slice=streamed\n"
            "  L1.S1 aggregate max dims=5: block=5 x1, shard n=150 S=1, "
            "dst-stationary, edges=streamed, hand-off=pipelined, 1 column token, "
            "1 interval token in\n"
            "  L1.S2 dense 17->5 (concat h=12): graph-first consumer of L1.S1, "
            "psums=resident, W-slice=resident, W(h)=resident\n"
            "tokens: 6 (2 column, 2 interval, 2 layer)\n"
            "program: 10 dense ops, 2 graph tasks\n"
            "predicted: 132076 DRAM bytes, 216150 MACs, 2964 edge visits\n");
}

/// Raw option spellings that resolve to the same per-stage choices share a
/// plan-cache entry: an explicit block_size equal to the default is the
/// same plan, not a second compile.
TEST(CompilerPasses, CacheKeyUnifiesEquivalentOptionSpellings) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const gnn::ModelSpec model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  Engine engine(EngineOptions{.num_threads = 1});

  SimulationRequest defaults;
  (void)engine.run(ds, model, defaults);
  EXPECT_EQ(engine.cache_stats().misses, 1u);

  SimulationRequest spelled;
  spelled.dataflow.block_size = 64;  // the paper default, spelled explicitly
  (void)engine.run(ds, model, spelled);
  EXPECT_EQ(engine.cache_stats().misses, 1u) << "equivalent options should share the plan";
  EXPECT_EQ(engine.cache_stats().hits, 1u);

  SimulationRequest different;
  different.dataflow.block_size = 16;
  (void)engine.run(ds, model, different);
  EXPECT_EQ(engine.cache_stats().misses, 2u);

  // Autotune resolving to the default choices (no predicted win on cora)
  // is the same plan too — `tuned` provenance never splits the key.
  SimulationRequest autotuned;
  autotuned.dataflow.autotune = true;
  (void)engine.run(ds, model, autotuned);
  EXPECT_EQ(engine.cache_stats().misses, 2u) << "autotune landing on defaults must share";
}

}  // namespace
}  // namespace gnnerator::core
