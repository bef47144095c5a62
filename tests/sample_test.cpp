// Tests for sampled mini-batch serving (graph/sample.hpp,
// serve/feature_cache.hpp): the fanout grammar, determinism of k-hop
// frontier sampling, the bitwise-exactness contract of full-fanout samples
// and mixed-batch fusion, and the pre-sampling feature cache's accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "graph/sample.hpp"
#include "serve/feature_cache.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gnnerator::graph {
namespace {

TEST(FanoutSpec, ParsesCommaSlashAndRepeatSpellings) {
  EXPECT_EQ(parse_fanout("10,5").per_hop, (std::vector<std::uint32_t>{10, 5}));
  // The slash spelling survives inside a comma-delimited CSV cell.
  EXPECT_EQ(parse_fanout("10/5").per_hop, (std::vector<std::uint32_t>{10, 5}));
  // <hops>x<fanout> repeats one fanout over several hops.
  EXPECT_EQ(parse_fanout("2x10").per_hop, (std::vector<std::uint32_t>{10, 10}));
  EXPECT_EQ(parse_fanout("2x10").canonical(), "10,10");
  EXPECT_EQ(parse_fanout(" 10 , 5 ").canonical(), "10,5");
  // 0 = keep every neighbor at that hop.
  EXPECT_EQ(parse_fanout("0,0").per_hop, (std::vector<std::uint32_t>{0, 0}));
  // Equivalent spellings coalesce through canonical().
  EXPECT_EQ(parse_fanout("2x10").canonical(), parse_fanout("10/10").canonical());
}

TEST(FanoutSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fanout(""), util::CheckError);
  EXPECT_THROW((void)parse_fanout("x5"), util::CheckError);
  EXPECT_THROW((void)parse_fanout("10.5"), util::CheckError);
  EXPECT_THROW((void)parse_fanout("10,-3"), util::CheckError);
}

TEST(SampleFrontier, DeterministicInPrngStateAndWellFormed) {
  const Dataset ds = make_dataset_by_name("cora", 1, /*with_features=*/false);
  const FanoutSpec fanout = parse_fanout("4,3");

  util::Prng a(7);
  util::Prng b(7);
  const SampledSubgraph first = sample_frontier(ds.graph, {42}, fanout, a);
  const SampledSubgraph replay = sample_frontier(ds.graph, {42}, fanout, b);
  EXPECT_EQ(first.fingerprint_value, replay.fingerprint_value);
  EXPECT_EQ(first.fingerprint, replay.fingerprint);
  EXPECT_EQ(first.vertices, replay.vertices);
  EXPECT_EQ(first.seeds, replay.seeds);

  // The vertex-id mapping is monotone (ascending parent ids) — the property
  // that keeps in-neighbor summation order identical to the parent's.
  EXPECT_TRUE(std::is_sorted(first.vertices.begin(), first.vertices.end()));
  EXPECT_EQ(std::set<NodeId>(first.vertices.begin(), first.vertices.end()).size(),
            first.vertices.size());
  ASSERT_EQ(first.seeds.size(), 1u);
  EXPECT_EQ(first.vertices[first.seeds[0]], 42u);
  EXPECT_TRUE(first.is_seed(first.seeds[0]));
  EXPECT_EQ(first.base_in_degree.size(), first.vertices.size());
  for (std::size_t v = 0; v < first.vertices.size(); ++v) {
    EXPECT_EQ(first.base_in_degree[v],
              static_cast<std::uint32_t>(ds.graph.coeff_in_degree(first.vertices[v])));
  }

  // A different PRNG stream truncates differently. Sample from the
  // highest-in-degree vertex with fanout 1 so truncation is guaranteed.
  NodeId hub = 0;
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.in_degree(v) > ds.graph.in_degree(hub)) {
      hub = v;
    }
  }
  ASSERT_GT(ds.graph.in_degree(hub), 1u);
  util::Prng c(7);
  const SampledSubgraph hub_sample =
      sample_frontier(ds.graph, {hub}, parse_fanout("1,1"), c);
  bool diverged = false;
  for (std::uint64_t s = 0; s < 64 && !diverged; ++s) {
    util::Prng other(100 + s);
    diverged = sample_frontier(ds.graph, {hub}, parse_fanout("1,1"), other)
                   .fingerprint_value != hub_sample.fingerprint_value;
  }
  EXPECT_TRUE(diverged) << "64 distinct PRNG streams all truncated identically";
}

TEST(SampleFrontier, FanoutBoundsFrontierExpansion) {
  const Dataset ds = make_dataset_by_name("cora", 1, /*with_features=*/false);
  util::Prng prng(3);
  const SampledSubgraph sub = sample_frontier(ds.graph, {42}, parse_fanout("2,2"), prng);
  // Hop 1 keeps <= 2 in-neighbors of the seed; hop 2 keeps <= 2 per hop-1
  // vertex: at most 1 + 2 + 4 vertices.
  EXPECT_LE(sub.vertices.size(), 7u);
  EXPECT_GE(sub.vertices.size(), 1u);
}

/// Full-fanout ("0,0") sampling over the model's receptive field must
/// reproduce the full-graph functional output at the seed vertex bitwise:
/// monotone remapping preserves the in-neighbor accumulation order, and the
/// coefficient-degree override preserves the parent's GCN-norm/mean
/// coefficients.
TEST(SampleFrontier, FullFanoutSeedRowBitwiseMatchesFullGraph) {
  const Dataset ds = make_dataset_by_name("cora");  // with features
  core::Engine engine(core::EngineOptions{.num_threads = 1});

  for (const gnn::LayerKind kind :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    SCOPED_TRACE(gnn::layer_kind_name(kind));
    const gnn::ModelSpec model = core::table3_model(kind, ds.spec);
    core::SimulationRequest request;
    request.mode = core::SimMode::kFunctional;

    const core::ExecutionResult full = engine.run(ds, model, request);
    ASSERT_TRUE(full.output.has_value());

    for (const NodeId seed : {NodeId{0}, NodeId{42}, NodeId{1000}, NodeId{2707}}) {
      util::Prng prng(11);
      const SampledSubgraph sub =
          sample_frontier(ds.graph, {seed}, parse_fanout("0,0"), prng);
      const Dataset sub_ds = subgraph_dataset(ds, sub);
      const core::ExecutionResult sampled = engine.run(sub_ds, model, request);
      ASSERT_TRUE(sampled.output.has_value());

      ASSERT_EQ(sub.seeds.size(), 1u);
      const auto full_row = full.output->row(seed);
      const auto sampled_row = sampled.output->row(sub.seeds[0]);
      ASSERT_EQ(full_row.size(), sampled_row.size());
      for (std::size_t c = 0; c < full_row.size(); ++c) {
        EXPECT_EQ(full_row[c], sampled_row[c])
            << "seed " << seed << " output column " << c << " diverged";
      }
    }
  }
}

/// Mixed-batch fusion is block-diagonal: every component's rows of the
/// fused functional output must equal running that component alone,
/// bitwise.
TEST(FuseSubgraphs, BlockOutputsBitwiseEqualSoloRuns) {
  const Dataset ds = make_dataset_by_name("cora");
  core::Engine engine(core::EngineOptions{.num_threads = 1});
  const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, ds.spec);
  core::SimulationRequest request;
  request.mode = core::SimMode::kFunctional;

  std::vector<SampledSubgraph> parts;
  for (const NodeId seed : {NodeId{5}, NodeId{600}, NodeId{2000}}) {
    util::Prng prng(17 + seed);
    parts.push_back(sample_frontier(ds.graph, {seed}, parse_fanout("5,4"), prng));
  }
  std::vector<const SampledSubgraph*> pointers;
  for (const SampledSubgraph& p : parts) {
    pointers.push_back(&p);
  }
  const SampledSubgraph fused = fuse_subgraphs(pointers);
  ASSERT_EQ(fused.vertices.size(),
            parts[0].vertices.size() + parts[1].vertices.size() + parts[2].vertices.size());

  const core::ExecutionResult fused_result =
      engine.run(subgraph_dataset(ds, fused), model, request);
  ASSERT_TRUE(fused_result.output.has_value());

  std::size_t offset = 0;
  for (const SampledSubgraph& part : parts) {
    const core::ExecutionResult solo = engine.run(subgraph_dataset(ds, part), model, request);
    ASSERT_TRUE(solo.output.has_value());
    for (std::size_t r = 0; r < part.vertices.size(); ++r) {
      const auto solo_row = solo.output->row(r);
      const auto fused_row = fused_result.output->row(offset + r);
      ASSERT_EQ(solo_row.size(), fused_row.size());
      for (std::size_t c = 0; c < solo_row.size(); ++c) {
        EXPECT_EQ(solo_row[c], fused_row[c])
            << "block row " << r << " col " << c << " diverged in the fused run";
      }
    }
    offset += part.vertices.size();
  }

  // The fused fingerprint distinguishes compositions.
  EXPECT_NE(fused.fingerprint_value, parts[0].fingerprint_value);
  const SampledSubgraph refused = fuse_subgraphs(pointers);
  EXPECT_EQ(fused.fingerprint_value, refused.fingerprint_value);
}

TEST(SubgraphDataset, NamesShapesAndGathersFeatures) {
  const Dataset ds = make_dataset_by_name("cora");
  util::Prng prng(23);
  const SampledSubgraph sub = sample_frontier(ds.graph, {42}, parse_fanout("3,2"), prng);
  const Dataset sub_ds = subgraph_dataset(ds, sub);
  EXPECT_EQ(sub_ds.spec.feature_dim, ds.spec.feature_dim);
  EXPECT_EQ(sub_ds.features.size(), sub.vertices.size() * ds.spec.feature_dim);
  for (std::size_t v = 0; v < sub.vertices.size(); ++v) {
    EXPECT_EQ(sub_ds.features[v * ds.spec.feature_dim],
              ds.features[sub.vertices[v] * ds.spec.feature_dim]);
  }

  // Structure-only bases stay structure-only (bounded serving memory).
  const Dataset bare = make_dataset_by_name("cora", 1, /*with_features=*/false);
  EXPECT_TRUE(subgraph_dataset(bare, sub).features.empty());
}

}  // namespace
}  // namespace gnnerator::graph

namespace gnnerator::serve {
namespace {

FeatureCacheOptions small_cache(std::uint64_t rows, std::uint64_t row_bytes,
                                double pinned_fraction, std::size_t trials) {
  FeatureCacheOptions options;
  options.budget_bytes = rows * row_bytes;
  options.pinned_fraction = pinned_fraction;
  options.trial_samples = trials;
  return options;
}

TEST(FeatureCache, ProbeAndCommitAgreeOnTheSameState) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::FanoutSpec fanout = graph::parse_fanout("4,3");
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  FeatureCache cache(ds, fanout, small_cache(64, row_bytes, 0.5, 64),
                     mem::DramModel::Config{});
  EXPECT_EQ(cache.row_bytes(), row_bytes);
  EXPECT_LE(cache.pinned_rows(), 32u);
  EXPECT_EQ(cache.pinned_rows() + cache.dynamic_capacity_rows(), 64u);

  const std::vector<graph::NodeId> rows{0, 1, 2, 3, 42, 42, 1000};
  const FeatureCache::Gather before = cache.probe(rows);
  EXPECT_EQ(before.hits + before.misses, rows.size());
  EXPECT_EQ(before.bytes_saved, before.hits * row_bytes);
  // Misses pay DRAM latency + transfer; hits only the faster transfer.
  const mem::DramModel::Config dram;
  EXPECT_GE(before.cycles, before.misses * dram.latency_cycles);

  cache.commit(rows);
  // Commit classified against the same pre-state probe() saw.
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().bytes_saved, before.bytes_saved);

  // After the commit, every non-pinned row it inserted is resident (the
  // gather fits the dynamic region), so a re-probe hits throughout.
  const FeatureCache::Gather after = cache.probe(rows);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.hits, rows.size());
}

TEST(FeatureCache, LruEvictsColdRowsAndCountsEvictions) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  // No pinned region, 4 dynamic rows: inserting 6 distinct rows evicts 2.
  FeatureCache cache(ds, graph::parse_fanout("2,2"), small_cache(4, row_bytes, 0.0, 0),
                     mem::DramModel::Config{});
  ASSERT_EQ(cache.pinned_rows(), 0u);
  ASSERT_EQ(cache.dynamic_capacity_rows(), 4u);

  cache.commit(std::vector<graph::NodeId>{10, 11, 12, 13, 14, 15});
  EXPECT_EQ(cache.stats().evictions, 2u);
  const FeatureCache::Gather g = cache.probe(std::vector<graph::NodeId>{12, 13, 14, 15});
  EXPECT_EQ(g.hits, 4u);  // the 4 most recently touched survive
  EXPECT_EQ(cache.probe(std::vector<graph::NodeId>{10, 11}).misses, 2u);
}

TEST(FeatureCache, RankingPinsHotVerticesDeterministically) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::FanoutSpec fanout = graph::parse_fanout("6,4");
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  FeatureCache a(ds, fanout, small_cache(256, row_bytes, 1.0, 128),
                 mem::DramModel::Config{});
  FeatureCache b(ds, fanout, small_cache(256, row_bytes, 1.0, 128),
                 mem::DramModel::Config{});
  EXPECT_GT(a.pinned_rows(), 0u);
  EXPECT_EQ(a.pinned_rows(), b.pinned_rows());

  // Two identically configured caches classify identically (the ranking
  // pre-pass is seeded, not wall-clock dependent).
  std::vector<graph::NodeId> all(ds.graph.num_nodes());
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    all[v] = v;
  }
  const FeatureCache::Gather ga = a.probe(all);
  const FeatureCache::Gather gb = b.probe(all);
  EXPECT_EQ(ga.hits, gb.hits);
  EXPECT_EQ(ga.cycles, gb.cycles);
}

// ------------------------------------------------ LRU differential test --
/// The list + hash-map LRU the dense intrusive one replaced, with its
/// ranking pre-pass drawing trial seeds through Prng::weighted_index: the
/// oracle for FeatureCache's pinned set, classification and LRU order. It
/// also counts rows evicted and re-touched within one commit, so the test
/// can check that its streams reach that case.
class ListMapFeatureCache {
 public:
  ListMapFeatureCache(const graph::Dataset& base, const graph::FanoutSpec& fanout,
                      const FeatureCacheOptions& options, const mem::DramModel::Config& dram) {
    const graph::NodeId num_nodes = base.graph.num_nodes();
    row_bytes_ = static_cast<std::uint64_t>(base.spec.feature_dim) * sizeof(float);
    const auto ceil_cycles = [](double bytes, double bytes_per_cycle) {
      const auto whole = static_cast<Cycle>(std::ceil(bytes / bytes_per_cycle));
      return whole == 0 ? Cycle{1} : whole;
    };
    miss_cycles_ = static_cast<Cycle>(dram.latency_cycles) +
                   ceil_cycles(static_cast<double>(row_bytes_), dram.bytes_per_cycle);
    hit_cycles_ = ceil_cycles(static_cast<double>(row_bytes_),
                              dram.bytes_per_cycle * options.hit_speedup);
    std::vector<std::uint64_t> freq(num_nodes, 0);
    if (options.trial_samples > 0) {
      util::Prng prng(options.seed);
      std::vector<double> seed_weights(num_nodes);
      for (graph::NodeId v = 0; v < num_nodes; ++v) {
        seed_weights[v] = static_cast<double>(base.graph.in_degree(v)) + 1.0;
      }
      for (std::size_t t = 0; t < options.trial_samples; ++t) {
        const auto seed = static_cast<graph::NodeId>(prng.weighted_index(seed_weights));
        for (const graph::NodeId parent :
             graph::sample_frontier(base.graph, {seed}, fanout, prng).vertices) {
          ++freq[parent];
        }
      }
    } else {
      for (graph::NodeId v = 0; v < num_nodes; ++v) {
        freq[v] = base.graph.out_degree(v);
      }
    }
    std::vector<graph::NodeId> ranked(num_nodes);
    std::iota(ranked.begin(), ranked.end(), graph::NodeId{0});
    std::sort(ranked.begin(), ranked.end(), [&](graph::NodeId a, graph::NodeId b) {
      return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
    });
    const double fraction = std::clamp(options.pinned_fraction, 0.0, 1.0);
    const std::uint64_t total_rows = options.budget_bytes / row_bytes_;
    const auto pinned_budget_rows =
        static_cast<std::uint64_t>(static_cast<double>(total_rows) * fraction);
    pinned_.assign(num_nodes, 0);
    std::uint64_t pinned_count = 0;
    for (const graph::NodeId v : ranked) {
      if (pinned_count >= pinned_budget_rows || freq[v] == 0) {
        break;
      }
      pinned_[v] = 1;
      ++pinned_count;
    }
    dynamic_capacity_ = static_cast<std::size_t>(total_rows - pinned_count);
    stats_.pinned_rows = pinned_count;
    stats_.budget_bytes = options.budget_bytes;
  }

  [[nodiscard]] FeatureCache::Gather probe(std::span<const graph::NodeId> rows) const {
    FeatureCache::Gather gather;
    for (const graph::NodeId v : rows) {
      if (pinned_[v] != 0 || lru_index_.contains(v)) {
        ++gather.hits;
      } else {
        ++gather.misses;
      }
    }
    gather.bytes_saved = gather.hits * row_bytes_;
    gather.cycles = gather.hits * hit_cycles_ + gather.misses * miss_cycles_;
    return gather;
  }

  void commit(std::span<const graph::NodeId> rows) {
    const FeatureCache::Gather gather = probe(rows);
    stats_.hits += gather.hits;
    stats_.misses += gather.misses;
    stats_.bytes_saved += gather.bytes_saved;
    if (dynamic_capacity_ == 0) {
      return;
    }
    std::set<graph::NodeId> evicted;
    for (const graph::NodeId v : rows) {
      if (pinned_[v] != 0) {
        continue;
      }
      if (const auto it = lru_index_.find(v); it != lru_index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        continue;
      }
      retouched_after_eviction_ += evicted.contains(v) ? 1 : 0;
      lru_.push_front(v);
      lru_index_[v] = lru_.begin();
      while (lru_.size() > dynamic_capacity_) {
        evicted.insert(lru_.back());
        lru_index_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
      }
    }
  }

  [[nodiscard]] const FeatureCacheStats& stats() const { return stats_; }
  [[nodiscard]] bool pinned(graph::NodeId v) const { return pinned_[v] != 0; }
  [[nodiscard]] std::size_t dynamic_capacity_rows() const { return dynamic_capacity_; }
  [[nodiscard]] std::uint64_t retouched_after_eviction() const {
    return retouched_after_eviction_;
  }

 private:
  std::uint64_t row_bytes_ = 0;
  Cycle miss_cycles_ = 0;
  Cycle hit_cycles_ = 0;
  std::vector<char> pinned_;
  std::size_t dynamic_capacity_ = 0;
  std::list<graph::NodeId> lru_;  // front = hottest
  std::unordered_map<graph::NodeId, std::list<graph::NodeId>::iterator> lru_index_;
  FeatureCacheStats stats_;
  std::uint64_t retouched_after_eviction_ = 0;
};

void expect_same_stats(const FeatureCacheStats& got, const FeatureCacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.bytes_saved, want.bytes_saved);
  EXPECT_EQ(got.pinned_rows, want.pinned_rows);
  EXPECT_EQ(got.budget_bytes, want.budget_bytes);
}

void expect_same_gather(const FeatureCache::Gather& got, const FeatureCache::Gather& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.bytes_saved, want.bytes_saved);
  EXPECT_EQ(got.cycles, want.cycles);
}

TEST(FeatureCache, MatchesListMapLruOracle) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::FanoutSpec fanout = graph::parse_fanout("4,3");
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  struct Config {
    std::uint64_t rows;
    double pinned_fraction;
    std::size_t trials;
    std::size_t dynamic_rows;  // expected dynamic capacity
  };
  const Config configs[] = {
      {0, 0.0, 64, 0},   {1, 0.0, 64, 1},   {16, 0.0, 64, 16}, {2, 0.5, 64, 1},
      {32, 0.5, 64, 16}, {32, 0.5, 0, 16},  {64, 1.0, 64, 0},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(testing::Message() << "rows " << config.rows << " pinned_fraction "
                                    << config.pinned_fraction << " trials " << config.trials);
    // A zero-row budget is still a positive byte budget: half a row.
    FeatureCacheOptions options = small_cache(config.rows, row_bytes, config.pinned_fraction,
                                              config.trials);
    options.budget_bytes = std::max<std::uint64_t>(options.budget_bytes, row_bytes / 2);
    FeatureCache cache(ds, fanout, options, mem::DramModel::Config{});
    ListMapFeatureCache oracle(ds, fanout, options, mem::DramModel::Config{});
    ASSERT_EQ(cache.dynamic_capacity_rows(), config.dynamic_rows);
    ASSERT_EQ(oracle.dynamic_capacity_rows(), config.dynamic_rows);
    expect_same_stats(cache.stats(), oracle.stats());

    // Rows come from a small universe — up to 8 pinned rows plus 40
    // unpinned ones — so commits repeat rows, hit, and evict.
    std::vector<graph::NodeId> universe;
    for (graph::NodeId v = 0; v < ds.graph.num_nodes() && universe.size() < 8; ++v) {
      if (oracle.pinned(v)) {
        universe.push_back(v);
      }
    }
    ASSERT_EQ(universe.empty(), oracle.stats().pinned_rows == 0);
    for (graph::NodeId v = 0; universe.size() < 48; v += 7) {
      if (!oracle.pinned(v)) {
        universe.push_back(v);
      }
    }

    util::Prng prng(0xcac4e + config.rows);
    std::vector<graph::NodeId> rows;
    for (int step = 0; step < 300; ++step) {
      rows.clear();
      const std::uint64_t n = 1 + prng.uniform_u64(24);
      for (std::uint64_t i = 0; i < n; ++i) {
        rows.push_back(universe[prng.uniform_u64(universe.size())]);
      }
      expect_same_gather(cache.probe(rows), oracle.probe(rows));
      cache.commit(rows);
      oracle.commit(rows);
      expect_same_stats(cache.stats(), oracle.stats());
      for (const graph::NodeId v : universe) {
        const std::vector<graph::NodeId> one{v};
        ASSERT_EQ(cache.probe(one).hits, oracle.probe(one).hits)
            << "residency of row " << v << " after commit " << step;
      }
      if (testing::Test::HasFailure()) {
        return;
      }
    }
    EXPECT_EQ(oracle.stats().hits > 0, config.rows > 0);
    if (config.dynamic_rows > 0) {
      EXPECT_GT(oracle.stats().evictions, 0u);
      EXPECT_GT(oracle.retouched_after_eviction(), 0u)
          << "no commit re-touched a row it had evicted";
    }
  }
}

TEST(FeatureCache, EvictedRowRetouchedInOneCommitReinserts) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  // One dynamic row: {10, 11, 10} inserts 10, evicts it for 11, then
  // evicts 11 to re-insert 10.
  FeatureCache cache(ds, graph::parse_fanout("2,2"), small_cache(1, row_bytes, 0.0, 0),
                     mem::DramModel::Config{});
  ASSERT_EQ(cache.dynamic_capacity_rows(), 1u);
  cache.commit(std::vector<graph::NodeId>{10, 11, 10});
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.probe(std::vector<graph::NodeId>{10}).hits, 1u);
  EXPECT_EQ(cache.probe(std::vector<graph::NodeId>{11}).misses, 1u);
}

TEST(FeatureCache, RejectsInvalidConfigs) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::FanoutSpec fanout = graph::parse_fanout("2,2");
  FeatureCacheOptions zero;
  zero.budget_bytes = 0;
  EXPECT_THROW(FeatureCache(ds, fanout, zero, mem::DramModel::Config{}), util::CheckError);
  FeatureCacheOptions slow;
  slow.hit_speedup = 0.5;
  EXPECT_THROW(FeatureCache(ds, fanout, slow, mem::DramModel::Config{}), util::CheckError);
}

}  // namespace
}  // namespace gnnerator::serve
