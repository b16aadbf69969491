#pragma once

#include <cstdint>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/types.hpp"

namespace anonpath {

/// A Monte-Carlo estimate of the anonymity degree with sampling error.
struct mc_estimate {
  double degree = 0.0;      ///< estimated H*(S), bits
  double std_error = 0.0;   ///< standard error of the estimate
  std::uint64_t samples = 0;
  std::uint64_t distinct_observations = 0;  ///< observation classes scored
  std::uint64_t shards = 0;                 ///< rng streams the estimate was split over

  /// Half-width of the ~95% confidence interval.
  [[nodiscard]] double ci95() const noexcept { return 1.96 * std_error; }
};

/// Tuning knobs for the batched Monte-Carlo estimation engine.
///
/// Determinism contract: for fixed (seed, samples, shards) the estimate is
/// bit-identical for EVERY value of `threads`. Each shard owns an
/// independent rng stream (stats::rng::stream) and gathers its sampled
/// observations into classes (observation::key()); the classes are merged
/// in shard order on the calling thread and each is scored once, so the
/// schedule never leaks into the arithmetic.
struct mc_config {
  /// Worker threads; 0 = hardware concurrency, 1 = serial.
  unsigned threads = 1;
  /// Independent sampling streams; 0 = default (16, clamped to `samples`).
  /// Changing the shard count changes which routes are drawn (a different
  /// but equally valid estimate); changing `threads` never does.
  std::uint64_t shards = 0;
};

/// Estimates H*(S) = E_e[ H(X|e) ] for an arbitrary compromised set by
/// sampling routes from the generative model, running the adversary's
/// collection step, and scoring the exact posterior entropy of each sampled
/// observation with the general posterior engine. Deterministic under a
/// fixed seed and config (see mc_config for the thread-invariance
/// guarantee).
///
/// This is the tool the analytic C=1 engine cannot replace: it handles any
/// C and is validated against brute force at small N.
///
/// Preconditions: as posterior_engine; samples > 0.
[[nodiscard]] mc_estimate estimate_anonymity_degree(
    const system_params& sys, const std::vector<node_id>& compromised,
    const path_length_distribution& lengths, std::uint64_t samples,
    std::uint64_t seed, const mc_config& config);

/// Single-threaded convenience wrapper with the default config (default
/// shard count).
[[nodiscard]] mc_estimate estimate_anonymity_degree(
    const system_params& sys, const std::vector<node_id>& compromised,
    const path_length_distribution& lengths, std::uint64_t samples,
    std::uint64_t seed);

}  // namespace anonpath
