// The walk-model Monte-Carlo engine (net::estimate_topology_degree) runs
// one transfer-matrix DP per globally distinct observation. Its estimate
// must be bit-identical to the per-shard memo it replaced, for every
// thread and shard count.

#include <gtest/gtest.h>

#include <bit>

#include "src/net/topology_mc.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath::net {
namespace {

struct walk_case {
  system_params sys;
  path_length_distribution lengths;
  topology_config topo;
};

std::vector<walk_case> cases() {
  topology_config regular;
  regular.kind = topology_kind::random_regular;
  regular.degree = 4;
  regular.graph_seed = 9;
  topology_config ring;
  ring.kind = topology_kind::ring;
  ring.ring_k = 2;
  return {{{30, 3}, path_length_distribution::uniform(1, 6), regular},
          {{24, 2}, path_length_distribution::fixed(3), ring}};
}

TEST(WalkMc, GlobalDedupIsBitEqualToPerShardMemo) {
  for (const walk_case& c : cases()) {
    const std::vector<node_id> comp =
        spread_compromised(c.sys.node_count, c.sys.compromised_count);
    for (const std::uint64_t shards : {1u, 7u, 64u}) {
      const topology_mc_estimate want = pre_change::walk_mc_per_shard(
          c.sys, comp, c.lengths, c.topo, 3000, 17, 1, shards);
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        const topology_mc_estimate got = estimate_topology_degree(
            c.sys, comp, c.lengths, c.topo, 3000, 17, threads, shards);
        const std::string where = c.topo.label() + " shards " +
                                  std::to_string(shards) + " threads " +
                                  std::to_string(threads);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.degree),
                  std::bit_cast<std::uint64_t>(want.degree))
            << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.std_error),
                  std::bit_cast<std::uint64_t>(want.std_error))
            << where;
        EXPECT_EQ(got.samples, want.samples) << where;
        EXPECT_EQ(got.shards, want.shards) << where;
      }
    }
  }
}

TEST(WalkMc, MoreShardsThanSamplesClampLikeTheReference) {
  const walk_case c = cases().front();
  const std::vector<node_id> comp = spread_compromised(30, 3);
  const topology_mc_estimate got =
      estimate_topology_degree(c.sys, comp, c.lengths, c.topo, 5, 3, 4, 64);
  const topology_mc_estimate want = pre_change::walk_mc_per_shard(
      c.sys, comp, c.lengths, c.topo, 5, 3, 1, 64);
  EXPECT_EQ(got.shards, 5u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.degree),
            std::bit_cast<std::uint64_t>(want.degree));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.std_error),
            std::bit_cast<std::uint64_t>(want.std_error));
}

}  // namespace
}  // namespace anonpath::net
