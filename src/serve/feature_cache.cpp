#include "serve/feature_cache.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"
#include "util/cumulative_sampler.hpp"

namespace gnnerator::serve {

namespace {

Cycle ceil_div_cycles(double bytes, double bytes_per_cycle) {
  const double cycles = bytes / bytes_per_cycle;
  const Cycle whole = static_cast<Cycle>(std::ceil(cycles));
  return whole == 0 ? 1 : whole;
}

}  // namespace

FeatureCache::FeatureCache(const graph::Dataset& base, const graph::FanoutSpec& fanout,
                           const FeatureCacheOptions& options,
                           const mem::DramModel::Config& dram) {
  GNNERATOR_CHECK_MSG(options.budget_bytes > 0, "feature cache needs a positive byte budget");
  GNNERATOR_CHECK_MSG(options.hit_speedup >= 1.0,
                      "feature cache hit_speedup must be >= 1 (got " << options.hit_speedup
                                                                     << ")");
  const graph::NodeId num_nodes = base.graph.num_nodes();
  row_bytes_ = static_cast<std::uint64_t>(base.spec.feature_dim) * sizeof(float);
  GNNERATOR_CHECK_MSG(row_bytes_ > 0, "feature cache over a dataset with feature_dim == 0");
  miss_cycles_ = static_cast<Cycle>(dram.latency_cycles) +
                 ceil_div_cycles(static_cast<double>(row_bytes_), dram.bytes_per_cycle);
  hit_cycles_ = ceil_div_cycles(static_cast<double>(row_bytes_),
                                dram.bytes_per_cycle * options.hit_speedup);

  // Ranking pre-pass: expected sample frequency per vertex — measured with
  // trial frontier samples when configured, else approximated by the
  // structural out-degree (a vertex enters a sample when selected as the
  // in-neighbor of a frontier vertex, i.e. through its out-edges).
  std::vector<std::uint64_t> freq(num_nodes, 0);
  if (options.trial_samples > 0) {
    util::Prng prng(options.seed);
    std::vector<double> seed_weights(num_nodes);
    for (graph::NodeId v = 0; v < num_nodes; ++v) {
      seed_weights[v] = static_cast<double>(base.graph.in_degree(v)) + 1.0;
    }
    const util::CumulativeSampler seeds(seed_weights);
    for (std::size_t t = 0; t < options.trial_samples; ++t) {
      const auto seed = static_cast<graph::NodeId>(seeds.draw(prng));
      const graph::SampledSubgraph trial =
          graph::sample_frontier(base.graph, {seed}, fanout, prng);
      for (const graph::NodeId parent : trial.vertices) {
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
  const std::uint64_t pinned_budget_rows =
      static_cast<std::uint64_t>(static_cast<double>(total_rows) * fraction);
  state_.assign(num_nodes, kAbsent);
  std::uint64_t pinned_count = 0;
  for (const graph::NodeId v : ranked) {
    if (pinned_count >= pinned_budget_rows || freq[v] == 0) {
      break;  // never pin rows the ranking has no evidence for
    }
    state_[v] = kPinned;
    ++pinned_count;
  }
  dynamic_capacity_ = static_cast<std::size_t>(total_rows - pinned_count);
  prev_.assign(num_nodes, kNil);
  next_.assign(num_nodes, kNil);

  stats_.pinned_rows = pinned_count;
  stats_.budget_bytes = options.budget_bytes;
}

FeatureCache::Gather FeatureCache::probe(std::span<const graph::NodeId> rows) const {
  Gather gather;
  for (const graph::NodeId v : rows) {
    if (resident(v)) {
      ++gather.hits;
    } else {
      ++gather.misses;
    }
  }
  gather.bytes_saved = gather.hits * row_bytes_;
  gather.cycles = gather.hits * hit_cycles_ + gather.misses * miss_cycles_;
  return gather;
}

void FeatureCache::commit(std::span<const graph::NodeId> rows) {
  // Phase 1: classify against the pre-commit state — exactly what probe()
  // over the same rows reports — and record the counters.
  const Gather gather = probe(rows);
  stats_.hits += gather.hits;
  stats_.misses += gather.misses;
  stats_.bytes_saved += gather.bytes_saved;

  // Phase 2: apply the LRU effects in row order. A row evicted earlier in
  // this same commit and touched again later simply re-inserts; all of it
  // is sequential and deterministic.
  if (dynamic_capacity_ == 0) {
    return;
  }
  for (const graph::NodeId v : rows) {
    if (state_[v] == kPinned) {
      continue;
    }
    if (state_[v] == kInLru) {
      unlink(v);
      push_front(v);
      continue;
    }
    state_[v] = kInLru;
    push_front(v);
    if (lru_size_ < dynamic_capacity_) {
      ++lru_size_;
      continue;
    }
    // Over capacity: the coldest row makes room.
    const graph::NodeId cold = tail_;
    unlink(cold);
    state_[cold] = kAbsent;
    ++stats_.evictions;
  }
}

void FeatureCache::unlink(graph::NodeId v) {
  const graph::NodeId before = prev_[v];
  const graph::NodeId after = next_[v];
  (before == kNil ? head_ : next_[before]) = after;
  (after == kNil ? tail_ : prev_[after]) = before;
}

void FeatureCache::push_front(graph::NodeId v) {
  prev_[v] = kNil;
  next_[v] = head_;
  (head_ == kNil ? tail_ : prev_[head_]) = v;
  head_ = v;
}

}  // namespace gnnerator::serve
