#pragma once

#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/sender_inference.hpp"
#include "src/anonymity/types.hpp"
#include "src/net/topology.hpp"

namespace anonpath::net {

/// Exact Bayesian sender inference for the weighted-walk routing model on a
/// restricted topology — the graph-aware counterpart of the clique
/// posterior_engine. Where the clique engine's likelihood collapses into
/// closed-form composition counts and falling factorials, no such closed
/// form exists on a general graph; instead the walk model's Markov
/// structure is exploited directly:
///
///   * the observation's chained reports pin contiguous walk segments
///     whose transition probabilities are an s-independent constant;
///   * the unobserved stretches between segments are walks through honest
///     nodes only (full collection: a silent compromised node proves
///     absence), whose probabilities are powers of the transition matrix
///     restricted to honest columns — computed by sparse DP over the
///     adjacency lists, never by materializing an N x N matrix;
///   * gap lengths convolve across segments against the length pmf, and
///     only the first gap (sender -> first observed node) depends on the
///     hypothesis s, so one backward DP scores all N candidates at once.
///
/// Cost per observation is O(max_length * |E| + N * max_length^2) — exact
/// inference at simulation scale, pinned event-by-event against the
/// exhaustive graph_oracle on small graphs by the conformance suite.
///
/// Supports full-coalition and partial-coverage observation shapes
/// (receiver_observed == false marginalizes over the open walk tail).
/// Gapped (timing-correlator) observations are not supported on restricted
/// graphs — the simulator refuses that combination up front.
class topology_posterior_engine final : public sender_inference {
 public:
  /// Preconditions: sys.valid(); topo.node_count() == sys.node_count;
  /// `compromised` lists distinct ids < N, |compromised| == C. The engine
  /// borrows `topo`, which must outlive it (a temporary does not compile).
  ///
  /// `interior_support` optionally prunes the honest-interior state space:
  /// a node outside the mask never occupies a non-sender walk position in
  /// the gap DPs — as an unobserved interior, a gap endpoint, or the open
  /// tail — so hypotheses that need it there get zero weight. (Sender
  /// positions are exempt, and transitions strictly inside observed
  /// fragments are s-independent constants that cancel in normalization,
  /// so the mask never touches them.) Empty (the default) or all-true
  /// masks leave the arithmetic bit-identical to the unmasked engine;
  /// proper subsets make the DP approximate but cheaper — for example the
  /// planned k-path support of net::kpath_support over a restricted
  /// source/exit policy. When non-empty, its size must equal
  /// sys.node_count.
  topology_posterior_engine(system_params sys,
                            std::vector<node_id> compromised,
                            path_length_distribution lengths,
                            const topology& topo,
                            std::vector<bool> interior_support = {});
  topology_posterior_engine(system_params, std::vector<node_id>,
                            path_length_distribution, topology&&,
                            std::vector<bool> = {}) = delete;

  /// Posterior Pr(S = i | obs) over all N nodes. Precondition: obs is
  /// explainable under the walk model (always true for observations the
  /// model itself generated) and not gapped.
  [[nodiscard]] std::vector<double> sender_posterior(
      const observation& obs) const;

  /// sender_inference: computes the posterior into `out` (resized to N);
  /// returns false — leaving `out` all-zero — when no sender hypothesis
  /// has positive likelihood (a fuzzed or mis-assembled observation, or
  /// one whose walk needs a node outside the support mask).
  [[nodiscard]] bool try_sender_posterior(
      const observation& obs, std::vector<double>& out) const override;

  /// True iff sender_posterior(obs) is well defined.
  [[nodiscard]] bool explainable(const observation& obs) const;

  [[nodiscard]] const system_params& system() const noexcept { return sys_; }
  [[nodiscard]] const std::vector<node_id>& compromised() const noexcept {
    return compromised_;
  }
  [[nodiscard]] const path_length_distribution& lengths() const noexcept {
    return lengths_;
  }
  [[nodiscard]] const topology& graph() const noexcept { return topo_; }

  /// The interior-support mask as given (empty = unpruned).
  [[nodiscard]] const std::vector<bool>& interior_support() const noexcept {
    return support_;
  }

 private:
  /// One honest-interior DP step over N-length rows: out[y] = sum_x in[x] *
  /// T(x->y) over honest in-support y (forward == false runs the transpose,
  /// for the sender gap).
  void honest_step(const double* in, double* out, bool forward) const;

  /// A flat arc list per node (CSR layout): node x's arcs are
  /// [off[x], off[x + 1]) of `to` and `w`.
  struct arc_lists {
    std::vector<std::size_t> off;
    std::vector<node_id> to;
    std::vector<double> w;
  };

  system_params sys_;
  std::vector<node_id> compromised_;
  std::vector<bool> compromised_flag_;
  /// honest_interior_[x]: x may occupy an unobserved interior position —
  /// honest AND inside the support mask (all honest nodes when unmasked).
  std::vector<bool> honest_interior_;
  std::vector<bool> support_;
  path_length_distribution lengths_;
  const topology& topo_;
  /// honest_step's two kernels, built once from topo_ and the mask:
  /// forward_ holds x -> honest-interior y with the raw weight w(x,y);
  /// backward_ holds, for honest-interior x only, every neighbour y with
  /// the quotient w(x,y) / total_weight(y) already divided.
  arc_lists forward_;
  arc_lists backward_;
};

}  // namespace anonpath::net
