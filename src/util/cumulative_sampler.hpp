#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/prng.hpp"

namespace gnnerator::util {

/// Weighted index draws in O(log n) over a fixed vector of integer weights
/// (e.g. in_degree + 1 per vertex): the prefix sums, accumulated in index
/// order, searched with upper_bound.
///
/// draw() returns exactly the index Prng::weighted_index returns over the
/// same weights from the same stream position, and consumes the same single
/// uniform(). With integer weights whose sum is below 2^53, every prefix sum
/// is exact, so back() equals weighted_index's total and r = uniform() *
/// total rounds identically. Every `r -= w` step of weighted_index's scan
/// that stays non-negative is then exact too (r - S is a multiple of r's
/// last place and no larger than r), and the first negative step keeps its
/// sign under rounding: the scan stops at the first prefix sum S > r, which
/// is upper_bound(prefix, r). An r that reaches the total falls into the
/// last bucket on both sides.
class CumulativeSampler {
 public:
  /// Throws CheckError unless `weights` is non-empty, every weight is a
  /// non-negative integer, and the sum is positive and below 2^53.
  explicit CumulativeSampler(std::span<const double> weights);

  /// Draws an index in [0, size()) proportionally to its weight.
  [[nodiscard]] std::size_t draw(Prng& prng) const;

  [[nodiscard]] std::size_t size() const { return prefix_.size(); }
  [[nodiscard]] double total() const { return prefix_.back(); }

 private:
  std::vector<double> prefix_;  // prefix_[i] = weights[0] + ... + weights[i]
};

}  // namespace gnnerator::util
