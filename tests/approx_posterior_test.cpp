// Conformance layer for the approximate (support-pruned) posterior:
// topology_posterior_engine with an interior-support mask. An all-true mask
// must be bit-identical to the unmasked engine and match the exhaustive
// graph_oracle event-by-event on the N <= 10 fixtures; proper support masks
// must prune exactly the hypotheses whose walks need an excluded node at a
// non-sender position.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/net/graph_oracle.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/net/topology_posterior.hpp"

namespace anonpath::net {
namespace {

std::vector<topology> fixture_graphs() {
  std::vector<topology> graphs;
  graphs.push_back(topology::complete(7));
  graphs.push_back(topology::ring(7, 1));
  graphs.push_back(topology::ring(7, 2));
  graphs.push_back(topology::tiered(7, 3));
  graphs.push_back(topology::trust_weighted(6, 0.5));
  graphs.push_back(topology::random_regular(8, 3, 11));
  return graphs;
}

/// Nodes the engine's mask keeps (N when unmasked).
std::uint32_t support_size(const topology_posterior_engine& engine) {
  const std::vector<bool>& s = engine.interior_support();
  if (s.empty()) return engine.graph().node_count();
  return static_cast<std::uint32_t>(std::count(s.begin(), s.end(), true));
}

TEST(ApproxPosterior, FullSupportIsBitIdenticalToExactEngine) {
  // An explicit all-true mask leaves the DP arithmetic untouched, so the
  // posteriors must match the unmasked engine double for double — not
  // approximately.
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    const std::vector<node_id> comp{1, n - 2};
    const system_params sys{n, 2};
    const auto d = path_length_distribution::uniform(0, 4);
    const graph_oracle oracle(sys, comp, d, topo);
    const topology_posterior_engine exact(sys, comp, d, topo);
    const topology_posterior_engine masked(sys, comp, d, topo,
                                           std::vector<bool>(n, true));
    EXPECT_EQ(support_size(exact), n);
    EXPECT_EQ(support_size(masked), n);
    ASSERT_GT(oracle.events().size(), 5u);
    for (const auto& event : oracle.events()) {
      const auto want = exact.sender_posterior(event.obs);
      const auto got_masked = masked.sender_posterior(event.obs);
      ASSERT_EQ(got_masked.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got_masked[i], want[i]) << topo.config().label();
    }
  }
}

TEST(ApproxPosterior, FullSupportMatchesGraphOracle) {
  // Transitively pinned through the exact engine already, but the direct
  // pin of the all-true mask against exhaustive enumeration is the
  // contract.
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    const std::vector<node_id> comp{1, n - 2};
    const system_params sys{n, 2};
    const auto d = path_length_distribution::fixed(3);
    const graph_oracle oracle(sys, comp, d, topo);
    const topology_posterior_engine full(sys, comp, d, topo,
                                         std::vector<bool>(n, true));
    for (const auto& event : oracle.events()) {
      const auto post = full.sender_posterior(event.obs);
      ASSERT_EQ(post.size(), event.posterior.size());
      for (std::size_t i = 0; i < post.size(); ++i)
        EXPECT_NEAR(post[i], event.posterior[i], 1e-10)
            << topo.config().label() << " obs=" << event.obs.key();
    }
  }
}

TEST(ApproxPosterior, KpathSupportWithUniformExitLawIsFull) {
  // Why sim scoring runs kpaths unpruned: under the uniform exit law every
  // node is an exit, the planned-path union spans the graph, and the
  // engine masked by it degenerates to the unmasked engine.
  const auto topo = topology::ring(7, 2);
  const std::vector<node_id> comp{2};
  const system_params sys{7, 1};
  const auto d = path_length_distribution::uniform(1, 6);
  std::vector<node_id> all;
  for (node_id v = 0; v < 7; ++v) all.push_back(v);
  const topology_posterior_engine via_routing(
      sys, comp, d, topo, kpath_support(topo, 2, all, all));
  EXPECT_EQ(support_size(via_routing), 7u);
  const topology_posterior_engine exact(sys, comp, d, topo);
  const graph_oracle oracle(sys, comp, d, topo);
  for (const auto& event : oracle.events()) {
    const auto want = exact.sender_posterior(event.obs);
    const auto got = via_routing.sender_posterior(event.obs);
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  }
}

TEST(ApproxPosterior, PrunedGapEndpointForcesTheSenderHypothesis) {
  // Ring(7, 1) with compromised {2} and node 1 pruned from the support.
  // An observation whose first report is "2 heard from 1" makes node 1 a
  // gap endpoint: every sender hypothesis must route its opening gap
  // through 1, which the mask forbids at any non-sender position — except
  // the hypothesis S = 1 itself, whose gap has length zero. Whenever the
  // masked posterior exists at all, it is the point mass on 1.
  const auto topo = topology::ring(7, 1);
  const std::vector<node_id> comp{2};
  const system_params sys{7, 1};
  const auto d = path_length_distribution::uniform(0, 4);
  const graph_oracle oracle(sys, comp, d, topo);
  std::vector<bool> support(7, true);
  support[1] = false;
  const topology_posterior_engine pruned(sys, comp, d, topo, support);
  EXPECT_EQ(support_size(pruned), 6u);
  const topology_posterior_engine exact(sys, comp, d, topo);
  int pinned = 0;
  bool mask_bites = false;
  std::vector<double> post;
  for (const auto& event : oracle.events()) {
    const auto& obs = event.obs;
    if (obs.origin || obs.reports.empty()) continue;
    if (obs.reports.front().reporter != 2 ||
        obs.reports.front().predecessor != 1)
      continue;
    if (!pruned.try_sender_posterior(obs, post)) continue;
    ASSERT_EQ(post.size(), 7u);
    EXPECT_NEAR(post[1], 1.0, 1e-12) << "obs=" << obs.key();
    // On at least one such event the unmasked engine spreads mass over
    // other senders — the concentration really is the mask's doing, not a
    // property the event already had.
    if (exact.sender_posterior(obs)[1] < 1.0 - 1e-9) mask_bites = true;
    ++pinned;
  }
  EXPECT_GT(pinned, 0) << "fixture produced no first-report-from-1 events";
  EXPECT_TRUE(mask_bites);
}

TEST(ApproxPosterior, MaskedPosteriorsStayNormalizedOrFailLoudly) {
  // Over the whole oracle event space, a proper support mask either yields
  // a normalized posterior or reports failure through try_sender_posterior
  // — never silent garbage.
  const auto topo = topology::random_regular(8, 3, 11);
  const std::vector<node_id> comp{1, 6};
  const system_params sys{8, 2};
  const auto d = path_length_distribution::uniform(0, 4);
  const graph_oracle oracle(sys, comp, d, topo);
  std::vector<bool> support(8, true);
  support[3] = false;
  support[5] = false;
  const topology_posterior_engine pruned(sys, comp, d, topo, support);
  EXPECT_EQ(support_size(pruned), 6u);
  int succeeded = 0, failed = 0;
  std::vector<double> post;
  for (const auto& event : oracle.events()) {
    if (pruned.try_sender_posterior(event.obs, post)) {
      double total = 0.0;
      for (double p : post) {
        EXPECT_GE(p, 0.0);
        total += p;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
      ++succeeded;
    } else {
      for (double p : post) EXPECT_EQ(p, 0.0);
      ++failed;
    }
  }
  EXPECT_GT(succeeded, 0);
  // The mask must actually bite somewhere on this event space.
  EXPECT_GT(failed, 0) << "pruning two interior nodes rejected nothing";
}

TEST(ApproxPosterior, SupportAccessors) {
  const auto topo = topology::ring(6, 1);
  const system_params sys{6, 1};
  const auto d = path_length_distribution::fixed(2);
  std::vector<bool> support(6, true);
  support[4] = false;
  const topology_posterior_engine pruned(sys, {0}, d, topo, support);
  EXPECT_EQ(support_size(pruned), 5u);
  ASSERT_EQ(pruned.interior_support().size(), 6u);
  EXPECT_FALSE(pruned.interior_support()[4]);
  EXPECT_TRUE(pruned.interior_support()[3]);
  EXPECT_EQ(pruned.graph().node_count(), 6u);
}

}  // namespace
}  // namespace anonpath::net
