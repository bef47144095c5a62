#include "util/cumulative_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace gnnerator::util {

CumulativeSampler::CumulativeSampler(std::span<const double> weights) {
  GNNERATOR_CHECK_MSG(!weights.empty(), "cumulative sampler needs at least one weight");
  prefix_.reserve(weights.size());
  double total = 0.0;
  for (const double w : weights) {
    GNNERATOR_CHECK_MSG(w >= 0.0 && std::floor(w) == w,
                        "cumulative sampler weight " << w << " is not a non-negative integer");
    total += w;
    GNNERATOR_CHECK_MSG(total < 0x1.0p53, "cumulative sampler weights sum to 2^53 or more");
    prefix_.push_back(total);
  }
  GNNERATOR_CHECK_MSG(total > 0.0, "cumulative sampler weights sum to zero");
}

std::size_t CumulativeSampler::draw(Prng& prng) const {
  const double r = prng.uniform() * prefix_.back();
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), r);
  return std::min(static_cast<std::size_t>(it - prefix_.begin()), prefix_.size() - 1);
}

}  // namespace gnnerator::util
