#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/sample.hpp"
#include "mem/dram.hpp"
#include "serve/metrics.hpp"
#include "util/prng.hpp"

namespace gnnerator::serve {

/// Knobs of the pre-sampling feature cache (FGNN-style): a per-dataset
/// on-chip store of feature rows ranked by how often frontier sampling is
/// expected to touch them.
struct FeatureCacheOptions {
  /// Total cache capacity in bytes (pinned region + dynamic LRU region).
  std::uint64_t budget_bytes = 16ull << 20;
  /// Fraction of the budget pinned to the top-ranked rows at build time;
  /// the remainder is a dynamic LRU region for the ranking's misses.
  double pinned_fraction = 0.75;
  /// Ranking pre-pass: number of trial frontier samples to run (seeds drawn
  /// proportionally to in-degree + 1, counting vertex occurrences). 0 falls
  /// back to ranking by structural out-degree alone.
  std::size_t trial_samples = 256;
  /// Seed of the ranking pre-pass PRNG (independent of the serving PRNG).
  std::uint64_t seed = 0x5eedcac8e5ULL;
  /// What a feature-row fetch costs at dispatch time, in device cycles: a
  /// miss pays the DRAM latency plus the row transfer at DRAM bandwidth; a
  /// hit streams from the cache at `hit_speedup` times DRAM bandwidth with
  /// no latency.
  double hit_speedup = 8.0;
};

/// Pre-sampling feature cache for one base dataset. Deterministic: the
/// pinned set is fixed at construction from a seeded ranking pre-pass, and
/// the dynamic region is strict LRU mutated only through commit() — which
/// the server calls at one sequential point per dispatched batch, so the
/// cache state is a pure function of the dispatch sequence at any thread
/// count. The LRU is a dense intrusive list over base-graph vertex ids
/// (prev/next arrays plus one residency byte per vertex): probes and commits
/// neither hash nor allocate.
///
/// probe() and commit() classify every row against the cache state at call
/// time with no intra-gather effects: duplicate rows of one gather that
/// miss are charged as repeated misses (documented simplification — no
/// intra-batch dedup). probe() is pure; a commit() immediately after a
/// probe() over the same rows observes the same state and agrees exactly.
class FeatureCache {
 public:
  /// Per-gather classification: cost in device cycles plus the counter
  /// deltas a commit over the same rows would record.
  struct Gather {
    Cycle cycles = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bytes_saved = 0;
  };

  /// Builds the ranking (trial samples under `fanout`, or out-degree when
  /// options.trial_samples == 0), pins the top rows within the pinned
  /// budget, and sizes the dynamic LRU region from the remainder. `dram`
  /// prices the miss path.
  FeatureCache(const graph::Dataset& base, const graph::FanoutSpec& fanout,
               const FeatureCacheOptions& options, const mem::DramModel::Config& dram);

  /// Classifies `rows` (base-graph vertex ids) against the current cache
  /// state without mutating it. Used inside the dispatch shed-fixpoint,
  /// where service cycles are priced repeatedly before the batch commits.
  [[nodiscard]] Gather probe(std::span<const graph::NodeId> rows) const;

  /// Classifies `rows` against the current state (identically to probe()),
  /// records the hit/miss/bytes-saved counters, then applies the LRU
  /// touches and insertions (evicting from the cold end, counted). Call
  /// exactly once per dispatched batch, when the device is occupied.
  void commit(std::span<const graph::NodeId> rows);

  [[nodiscard]] const FeatureCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t row_bytes() const { return row_bytes_; }
  [[nodiscard]] std::size_t pinned_rows() const
      { return static_cast<std::size_t>(stats_.pinned_rows); }
  [[nodiscard]] std::size_t dynamic_capacity_rows() const { return dynamic_capacity_; }

 private:
  /// Residency of one base-graph vertex.
  enum : std::uint8_t { kAbsent = 0, kPinned = 1, kInLru = 2 };
  static constexpr graph::NodeId kNil = std::numeric_limits<graph::NodeId>::max();

  [[nodiscard]] bool resident(graph::NodeId v) const { return state_[v] != kAbsent; }
  /// Detaches `v` from the LRU list (its links are left stale).
  void unlink(graph::NodeId v);
  /// Links `v` in as the hottest LRU entry.
  void push_front(graph::NodeId v);

  std::uint64_t row_bytes_;
  Cycle miss_cycles_;
  Cycle hit_cycles_;
  std::vector<std::uint8_t> state_;  // per base-graph vertex
  std::size_t dynamic_capacity_ = 0;
  // LRU links per vertex, head_ = hottest, tail_ = next to evict.
  std::vector<graph::NodeId> prev_;
  std::vector<graph::NodeId> next_;
  graph::NodeId head_ = kNil;
  graph::NodeId tail_ = kNil;
  std::size_t lru_size_ = 0;
  FeatureCacheStats stats_;
};

}  // namespace gnnerator::serve
