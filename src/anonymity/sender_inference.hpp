#pragma once

#include <vector>

#include "src/anonymity/observation.hpp"

namespace anonpath {

/// The one seam between an adversary's assembled observation and its
/// sender posterior: what the simulator's scoring (sim::detail::score_run)
/// needs of an inference engine, whatever model sits behind it. The clique
/// posterior_engine and the restricted-path net::topology_posterior_engine
/// implement it; callers that know their engine keep calling it directly.
class sender_inference {
 public:
  virtual ~sender_inference() = default;

  /// Writes Pr(S = i | obs) over all N nodes into `out` and returns true,
  /// or returns false when no sender hypothesis explains the observation
  /// (a mis-linked timing chain, a fuzzed log): such an observation carries
  /// no usable evidence, and scoring skips it rather than scoring it as
  /// zero. A pure function of the observation, so callers may memoize it.
  [[nodiscard]] virtual bool try_sender_posterior(
      const observation& obs, std::vector<double>& out) const = 0;

 protected:
  // Engines stay copyable (the Monte-Carlo estimators copy one per
  // thread); protected so no copy slices through the interface.
  sender_inference() = default;
  sender_inference(const sender_inference&) = default;
  sender_inference& operator=(const sender_inference&) = default;
  sender_inference(sender_inference&&) = default;
  sender_inference& operator=(sender_inference&&) = default;
};

}  // namespace anonpath
