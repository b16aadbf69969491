#pragma once

#include <cstdint>
#include <vector>

#include "src/stats/rng.hpp"

namespace anonpath::stats {

/// Draws indices 0..n-1 with given (unnormalized) weights in O(1) per draw
/// using Vose's alias method. Used to sample path lengths from arbitrary
/// distributions (the paper's variable-length strategies) inside the
/// simulator and the Monte-Carlo estimator.
class discrete_sampler {
 public:
  /// Builds the alias table in place over the (moved-in) weights.
  /// Preconditions: weights non-empty, all weights >= 0 and finite, at
  /// least one weight > 0.
  explicit discrete_sampler(std::vector<double> weights);

  /// Number of categories.
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// Draws one index with probability proportional to its weight.
  [[nodiscard]] std::size_t sample(rng& gen) const;

 private:
  std::vector<double> prob_;         // acceptance probability per column
  std::vector<std::uint32_t> alias_; // alias target per column
};

}  // namespace anonpath::stats
