#pragma once

#include <cstdint>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/sender_inference.hpp"
#include "src/anonymity/types.hpp"

namespace anonpath {

/// Exact Bayesian sender inference for an arbitrary number of compromised
/// nodes (paper Sec. 4, Eq. (3)/(7)/(8)), for simple (cycle-free) rerouting
/// paths on a clique.
///
/// The adversary's reports chain into path fragments; for a hypothesis
/// (sender s, length l) the number of consistent paths factorizes into a
/// composition count for the unobserved gaps times a falling factorial for
/// their contents (DESIGN.md Sec. 2.2), evaluated in log space:
///
///   count(s, l) = C(T + g - 1, g - 1) * (|U|)_T
///
/// with T unobserved slots, g gaps between merged observation blocks, and U
/// the pool of unobserved honest nodes.
///
/// Hot-path engineering: the constructor precomputes a log-factorial table
/// covering every falling factorial / binomial the likelihood can touch, and
/// likelihoods are memoized by their (span, gaps, pool) layout signature —
/// distinct observations overwhelmingly collapse onto few layouts, so the
/// combinatorial sum runs once per layout class. The memo and the scratch
/// buffers behind layout_for make a single engine instance NOT safe for
/// concurrent use; give each thread its own (cheap) copy, as the
/// Monte-Carlo engine does.
class posterior_engine final : public sender_inference {
 public:
  /// Preconditions: sys.valid(); `compromised` lists distinct node ids
  /// < node_count, |compromised| == sys.compromised_count; distribution
  /// support fits simple paths (max_length <= N-1).
  posterior_engine(system_params sys, std::vector<node_id> compromised,
                   path_length_distribution lengths);

  /// Posterior Pr(S = i | obs) over all N nodes. Uses the class-collapsed
  /// fast path (identical likelihood for all unobserved candidates).
  ///
  /// Honors the observation's completeness flags: with
  /// obs.receiver_observed == false the terminal of the path is unknown and
  /// the likelihood marginalizes over every possible tail; with
  /// obs.gapped == true unobserved slots may also hold compromised nodes
  /// (and silent compromised candidates stay in the running), which is the
  /// sound scoring rule for collectors that can lose reports.
  /// Precondition: obs is explainable (some sender hypothesis has positive
  /// likelihood); use explainable() to screen adversarial inputs.
  [[nodiscard]] std::vector<double> sender_posterior(
      const observation& obs) const;

  /// True iff some sender hypothesis has positive likelihood under the
  /// engine's model — i.e. sender_posterior(obs) is well defined. Always
  /// true for observations generated by the model itself; a mis-linked
  /// timing-correlator chain or fuzzed input can be unexplainable.
  [[nodiscard]] bool explainable(const observation& obs) const;

  /// sender_inference: sender_posterior(obs), or false when no hypothesis
  /// explains the observation — a gapped one explainable() rejects, or one
  /// whose reports do not chain into path fragments (a lost message whose
  /// compromised successor never reported it).
  [[nodiscard]] bool try_sender_posterior(
      const observation& obs, std::vector<double>& out) const override;

  /// Slow reference implementation evaluating every candidate from scratch;
  /// used by tests to validate the fast path.
  [[nodiscard]] std::vector<double> sender_posterior_reference(
      const observation& obs) const;

  /// ln Pr(obs | S = s); -infinity when inconsistent. Exact (no dropped
  /// s-independent factors), so values are comparable across observations.
  [[nodiscard]] double log_likelihood(const observation& obs, node_id s) const;

  [[nodiscard]] const system_params& system() const noexcept { return sys_; }
  [[nodiscard]] const std::vector<node_id>& compromised() const noexcept {
    return compromised_;
  }
  [[nodiscard]] const path_length_distribution& lengths() const noexcept {
    return lengths_;
  }

  /// Memo telemetry since construction: hits and misses of the layout
  /// memo (a miss also counts an uncacheable layout, which runs the full
  /// combinatorial sum). Deterministic for a deterministic observation
  /// stream — they feed the obs metrics layer and the bench hit-rate
  /// counters, and cost one increment on a path that already does a cache
  /// probe. likelihood_evaluations() = hits + misses.
  [[nodiscard]] std::uint64_t memo_hits() const noexcept { return memo_hits_; }
  [[nodiscard]] std::uint64_t memo_misses() const noexcept {
    return memo_misses_;
  }
  [[nodiscard]] std::uint64_t likelihood_evaluations() const noexcept {
    return memo_hits_ + memo_misses_;
  }

 private:
  system_params sys_;
  std::vector<node_id> compromised_;
  std::vector<bool> compromised_flag_;
  path_length_distribution lengths_;
  std::vector<double> log_pl_;              // ln pmf per length
  std::vector<double> log_paths_per_len_;   // ln (N-1)_l per length
  std::vector<double> log_fact_;            // ln i!, compensated cumulative

  struct block_layout {
    bool consistent = false;
    long long span_total = 0;   // occupied extended-path slots
    long long gap_count = 0;    // number of gaps between blocks
    long long pool_size = 0;    // |U| unobserved honest nodes
  };

  // Likelihood memo keyed by (span_total, gap_count, pool_size); NaN marks
  // an empty slot (-inf is a legitimate cached value). Mutable scratch for
  // layout_for's distinctness scan: a node is "seen" iff its stamp equals
  // the current generation, so resetting is a single counter increment.
  long long span_cache_max_ = 0;
  long long gap_cache_max_ = 0;
  mutable std::vector<double> likelihood_cache_;
  mutable std::vector<std::uint32_t> seen_stamp_;
  mutable std::uint32_t stamp_ = 0;
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
  // Reusable structure-of-arrays scratch for sender_posterior: the
  // candidate-class flags and the log-weight accumulator, one slot per
  // node. Kept as members so the per-observation hot loop performs no
  // allocations; covered by the same single-thread contract as the memo.
  mutable std::vector<char> class_scratch_;
  mutable std::vector<double> logw_scratch_;

  /// ln n!/(n-k)! and ln C(n, k) from the precomputed table.
  [[nodiscard]] double table_log_falling_factorial(long long n,
                                                   long long k) const {
    return log_fact_[static_cast<std::size_t>(n)] -
           log_fact_[static_cast<std::size_t>(n - k)];
  }
  [[nodiscard]] double table_log_binomial(long long n, long long k) const {
    return log_fact_[static_cast<std::size_t>(n)] -
           log_fact_[static_cast<std::size_t>(k)] -
           log_fact_[static_cast<std::size_t>(n - k)];
  }

  /// Builds the merged block layout for hypothesis sender `s`. `v_known`
  /// states whether the receiver reported its predecessor `v`; `gapped`
  /// switches to the lossy-collection rules (see sender_posterior).
  [[nodiscard]] block_layout layout_for(
      const std::vector<path_fragment>& fragments, node_id v, bool v_known,
      bool gapped, node_id s) const;

  /// ln Pr(obs | s) given a prebuilt layout; memoized on the layout key.
  [[nodiscard]] double log_likelihood_from_layout(const block_layout& lay) const;

  /// The memo's backing computation (also used directly by the reference
  /// path so tests exercise the memo against an uncached evaluation).
  [[nodiscard]] double log_likelihood_from_layout_uncached(
      const block_layout& lay) const;
};

}  // namespace anonpath
