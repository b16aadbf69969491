// Unit layer for the net::topology subsystem: constructor invariants
// (degree, symmetry, connectivity, weights), parameter validation, labels,
// the make() dispatch, walk-step sampling membership, and the churn
// renewal process (determinism, rate-0 inertness, realized transitions),
// and the random-regular generator pinned to its hash-set reference.

#include <gtest/gtest.h>

#include <unordered_set>
#include <utility>
#include <vector>

#include "src/net/churn.hpp"
#include "src/net/topology.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::net {
namespace {

/// u's neighbour ids, ascending, and the parallel edge weights, copied out
/// of its adjacency view.
std::vector<node_id> neighbors(const topology& t, node_id u) {
  const neighbor_view a = t.adjacency(u);
  return {a.ids, a.ids + a.size};
}
std::vector<double> neighbor_weights(const topology& t, node_id u) {
  const neighbor_view a = t.adjacency(u);
  return {a.weights, a.weights + a.size};
}

void check_invariants(const topology& t) {
  const std::uint32_t n = t.node_count();
  EXPECT_TRUE(t.connected());
  EXPECT_GE(t.min_degree(), 1u);
  for (node_id u = 0; u < n; ++u) {
    const auto nbr = neighbors(t, u);
    const auto w = neighbor_weights(t, u);
    ASSERT_EQ(nbr.size(), w.size());
    double total = 0.0;
    double prob = 0.0;
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      EXPECT_NE(nbr[i], u) << "self-loop at " << u;
      if (i > 0) EXPECT_LT(nbr[i - 1], nbr[i]) << "unsorted adjacency";
      EXPECT_GT(w[i], 0.0);
      // Undirected: same edge, same weight, both directions.
      EXPECT_TRUE(t.has_edge(nbr[i], u));
      EXPECT_DOUBLE_EQ(t.edge_weight(nbr[i], u), w[i]);
      total += w[i];
      prob += t.transition_prob(u, nbr[i]);
    }
    EXPECT_DOUBLE_EQ(t.total_weight(u), total);
    EXPECT_NEAR(prob, 1.0, 1e-12) << "walk step not a distribution at " << u;
  }
}

TEST(Topology, CompleteHasAllEdges) {
  const auto t = topology::complete(8);
  check_invariants(t);
  EXPECT_EQ(t.min_degree(), 7u);
  EXPECT_EQ(t.max_degree(), 7u);
  EXPECT_TRUE(t.is_complete());
  for (node_id u = 0; u < 8; ++u)
    for (node_id v = 0; v < 8; ++v)
      EXPECT_EQ(t.has_edge(u, v), u != v);
}

TEST(Topology, RingDegreeAndLocality) {
  const auto t = topology::ring(10, 2);
  check_invariants(t);
  EXPECT_EQ(t.min_degree(), 4u);
  EXPECT_EQ(t.max_degree(), 4u);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(0, 2));
  EXPECT_TRUE(t.has_edge(0, 9));
  EXPECT_TRUE(t.has_edge(0, 8));
  EXPECT_FALSE(t.has_edge(0, 3));
  EXPECT_FALSE(t.has_edge(0, 5));
}

TEST(Topology, RandomRegularIsRegularAndSeedDeterministic) {
  const auto a = topology::random_regular(20, 4, 7);
  const auto b = topology::random_regular(20, 4, 7);
  check_invariants(a);
  EXPECT_EQ(a.min_degree(), 4u);
  EXPECT_EQ(a.max_degree(), 4u);
  for (node_id u = 0; u < 20; ++u)
    EXPECT_EQ(neighbors(a, u), neighbors(b, u)) << "same seed, same graph";
  // Another seed almost surely wires differently somewhere.
  const auto c = topology::random_regular(20, 4, 8);
  bool differs = false;
  for (node_id u = 0; u < 20; ++u)
    if (neighbors(a, u) != neighbors(c, u)) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Topology, TieredLinksOnlyAdjacentTiers) {
  const auto t = topology::tiered(9, 3);  // tiers {0,1,2} x 3 nodes
  check_invariants(t);
  const auto tier = [](node_id u) { return u / 3; };
  for (node_id u = 0; u < 9; ++u)
    for (node_id v = 0; v < 9; ++v) {
      if (u == v) continue;
      const bool adjacent_tier =
          tier(u) + 1 == tier(v) || tier(v) + 1 == tier(u);
      EXPECT_EQ(t.has_edge(u, v), adjacent_tier) << u << "~" << v;
    }
}

TEST(Topology, TrustWeightsDecayWithRingDistance) {
  const auto t = topology::trust_weighted(10, 0.5);
  check_invariants(t);
  EXPECT_EQ(t.min_degree(), 9u);  // complete adjacency, weighted
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 3), 0.25);
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 5), 0.0625);  // distance 5
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 9), 1.0);     // wraps: distance 1
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 8), 0.5);
}

TEST(Topology, TrustDecayOneIsTheUniformClique) {
  const auto t = topology::trust_weighted(8, 1.0);
  for (node_id u = 0; u < 8; ++u)
    for (node_id v = 0; v < 8; ++v)
      if (u != v) EXPECT_DOUBLE_EQ(t.transition_prob(u, v), 1.0 / 7.0);
}

TEST(Topology, ConfigValidation) {
  topology_config cfg;
  EXPECT_TRUE(cfg.valid_for(2));
  EXPECT_FALSE(cfg.valid_for(1));

  cfg.kind = topology_kind::ring;
  cfg.ring_k = 0;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.ring_k = 4;
  EXPECT_TRUE(cfg.valid_for(10));  // 2k = 9 - 1
  cfg.ring_k = 5;
  EXPECT_FALSE(cfg.valid_for(10));  // 2k > n - 1

  cfg = topology_config{};
  cfg.kind = topology_kind::random_regular;
  cfg.degree = 1;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.degree = 3;
  EXPECT_TRUE(cfg.valid_for(10));   // n*d even
  EXPECT_FALSE(cfg.valid_for(9));   // n*d odd
  cfg.degree = 10;
  EXPECT_FALSE(cfg.valid_for(10));  // d >= n

  cfg = topology_config{};
  cfg.kind = topology_kind::tiered;
  cfg.tiers = 1;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.tiers = 3;
  EXPECT_TRUE(cfg.valid_for(10));
  EXPECT_FALSE(cfg.valid_for(2));  // tiers > n

  cfg = topology_config{};
  cfg.kind = topology_kind::trust_weighted;
  cfg.trust_decay = 0.0;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.trust_decay = 1.5;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.trust_decay = 0.3;
  EXPECT_TRUE(cfg.valid_for(10));
}

TEST(Topology, TrustWeightsThatUnderflowAreRefused) {
  // decay^(N/2 - 1) is 2^-1074 (the least double) at N = 2151 and rounds
  // to 0 one ring distance later: the zero-weight graph is refused up front
  // instead of failing the builder's positive-weight check.
  topology_config cfg;
  cfg.kind = topology_kind::trust_weighted;
  cfg.trust_decay = 0.5;
  EXPECT_TRUE(cfg.valid_for(2151));
  EXPECT_FALSE(cfg.valid_for(2152));
  EXPECT_FALSE(cfg.valid_for(4473));
  EXPECT_THROW((void)topology::make(2152, cfg), contract_violation);
  const topology t = topology::make(2151, cfg);
  EXPECT_EQ(t.edge_weight(0, 2151 / 2), 0x1p-1074);
  // A decay whose products stall at a subnormal never reaches 0.
  cfg.trust_decay = 0.9;
  EXPECT_TRUE(cfg.valid_for(20000));
  cfg.trust_decay = 1.0;
  EXPECT_TRUE(cfg.valid_for(4000000));
}

TEST(Topology, MakeRejectsInvalidConfigLoudly) {
  topology_config cfg;
  cfg.kind = topology_kind::ring;
  cfg.ring_k = 20;
  EXPECT_THROW((void)topology::make(10, cfg), contract_violation);
}

TEST(Topology, MakeDispatchesEveryKind) {
  for (const topology_kind kind :
       {topology_kind::complete, topology_kind::ring,
        topology_kind::random_regular, topology_kind::tiered,
        topology_kind::trust_weighted}) {
    topology_config cfg;
    cfg.kind = kind;
    cfg.ring_k = 2;
    cfg.degree = 4;
    cfg.tiers = 3;
    cfg.trust_decay = 0.5;
    const auto t = topology::make(12, cfg);
    EXPECT_EQ(t.config().kind, kind);
    EXPECT_EQ(t.node_count(), 12u);
    check_invariants(t);
  }
}

TEST(Topology, Labels) {
  EXPECT_EQ(topology_config{}.label(), "complete");
  topology_config cfg;
  cfg.kind = topology_kind::ring;
  cfg.ring_k = 2;
  EXPECT_EQ(cfg.label(), "ring(2)");
  cfg.kind = topology_kind::random_regular;
  cfg.degree = 4;
  cfg.graph_seed = 7;
  EXPECT_EQ(cfg.label(), "regular(4@7)");
  cfg.kind = topology_kind::tiered;
  cfg.tiers = 3;
  EXPECT_EQ(cfg.label(), "tiered(3)");
  cfg.kind = topology_kind::trust_weighted;
  cfg.trust_decay = 0.25;
  EXPECT_EQ(cfg.label(), "trust(0.25)");
}

TEST(Topology, SampleNeighborStaysOnEdges) {
  stats::rng gen(3);
  for (const auto& t : {topology::ring(12, 2), topology::tiered(12, 3),
                        topology::trust_weighted(12, 0.4)}) {
    for (int i = 0; i < 500; ++i) {
      const node_id u = static_cast<node_id>(gen.next_below(12));
      const node_id v = t.sample_neighbor(u, gen);
      EXPECT_TRUE(t.has_edge(u, v));
    }
  }
}

/// The random-regular generator (d >= 3) as it stood with edge presence in
/// a hash set of symmetric keys: the reference the per-node neighbour-slot
/// generator must reproduce edge for edge, in order. `rejected` counts the
/// circulant-base edges refused as duplicates.
std::vector<std::pair<node_id, node_id>> reference_random_regular(
    std::uint32_t n, std::uint32_t degree, std::uint64_t seed,
    std::uint64_t& rejected) {
  const auto edge_key = [](node_id u, node_id v) {
    const node_id lo = u < v ? u : v;
    const node_id hi = u < v ? v : u;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };
  for (std::uint64_t attempt = 0; attempt < 128; ++attempt) {
    stats::rng gen = stats::rng::stream(seed, attempt);
    std::vector<std::pair<node_id, node_id>> edges;
    std::unordered_set<std::uint64_t> have;
    const auto put = [&](node_id u, node_id v) {
      if (u == v || have.count(edge_key(u, v)) != 0) {
        ++rejected;
        return;
      }
      have.insert(edge_key(u, v));
      edges.emplace_back(u, v);
    };
    for (std::uint32_t off = 1; off <= degree / 2; ++off)
      for (node_id u = 0; u < n; ++u)
        put(u, static_cast<node_id>((u + off) % n));
    if (degree % 2 == 1)
      for (node_id u = 0; u < n / 2; ++u) put(u, u + n / 2);
    const std::uint64_t swaps = 20ull * n * degree;
    for (std::uint64_t i = 0; i < swaps; ++i) {
      const std::size_t e1 = gen.next_below(edges.size());
      const std::size_t e2 = gen.next_below(edges.size());
      if (e1 == e2) continue;
      auto [a, b] = edges[e1];
      auto [c, d] = edges[e2];
      if (gen.next_below(2) == 1) std::swap(c, d);
      if (a == c || a == d || b == c || b == d) continue;
      if (have.count(edge_key(a, c)) != 0 || have.count(edge_key(b, d)) != 0)
        continue;
      have.erase(edge_key(a, b));
      have.erase(edge_key(c, d));
      have.insert(edge_key(a, c));
      have.insert(edge_key(b, d));
      edges[e1] = {a, c};
      edges[e2] = {b, d};
    }
    // Union-find connectivity, as the generator checks it.
    std::vector<node_id> parent(n);
    for (node_id u = 0; u < n; ++u) parent[u] = u;
    const auto find = [&](node_id x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    std::uint32_t components = n;
    for (const auto& [u, v] : edges)
      if (find(u) != find(v)) {
        parent[find(u)] = find(v);
        --components;
      }
    if (components == 1) return edges;
  }
  ADD_FAILURE() << "reference: no connected graph";
  return {};
}

TEST(Topology, RandomRegularMatchesHashSetReference) {
  // Every valid (n, d) up to n = 130, d in {3..6}, over several seeds: the
  // generator's edge list equals the reference's, in generator order. The
  // grid includes n = d + 1 (the complete graph, where every swap is
  // refused) and the smallest even n for odd d. The circulant base of a
  // valid (n, d) never repeats an edge — offsets 1..d/2 and n/2 would need
  // d >= n to collide — and the reference's rejection count confirms it.
  std::uint64_t rejected = 0;
  std::size_t graphs = 0;
  for (std::uint32_t d = 3; d <= 6; ++d)
    for (std::uint32_t n = d + 1; n <= 130; ++n) {
      topology_config cfg;
      cfg.kind = topology_kind::random_regular;
      cfg.degree = d;
      if (!cfg.valid_for(n)) continue;
      for (const std::uint64_t seed : {1ull, 2ull, 0x9e3779b97f4a7c15ull}) {
        cfg.graph_seed = seed;
        const auto expected = reference_random_regular(n, d, seed, rejected);
        const std::vector<weighted_edge> got = generate_edges(n, cfg);
        ASSERT_EQ(got.size(), expected.size()) << "n=" << n << " d=" << d;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].u, expected[i].first)
              << "n=" << n << " d=" << d << " seed=" << seed << " edge " << i;
          ASSERT_EQ(got[i].v, expected[i].second)
              << "n=" << n << " d=" << d << " seed=" << seed << " edge " << i;
          ASSERT_EQ(got[i].w, 1.0);
        }
        ++graphs;
      }
    }
  EXPECT_EQ(graphs, 3u * (64 + 126 + 63 + 124));
  EXPECT_EQ(rejected, 0u);
}

TEST(Topology, RandomRegularCsrAtScaleKeepsItsAdjacency) {
  // FNV-1a over every node's sorted neighbour ids (4 bytes each, little
  // end first) with a 0xFFFFFFFF terminator per node. The literal is the
  // hash of this graph as the hash-set generator wired it.
  topology_config cfg;
  cfg.kind = topology_kind::random_regular;
  cfg.degree = 4;
  cfg.graph_seed = 1;
  const topology t = topology::make_csr(100000, cfg);
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (node_id u = 0; u < t.node_count(); ++u) {
    const neighbor_view a = t.adjacency(u);
    for (std::uint32_t i = 0; i < a.size; ++i) mix(a.ids[i]);
    mix(0xFFFFFFFFull);
  }
  EXPECT_EQ(t.edge_count(), 200000u);
  EXPECT_EQ(h, 0xb2f3878be7bc530bull);
}

TEST(Churn, RateZeroIsInertAndDrawsNothing) {
  churn_model churn(50, churn_config{}, 42);
  EXPECT_FALSE(churn.enabled());
  for (double t : {0.0, 5.0, 1e6}) EXPECT_TRUE(churn.is_up(7, t));
  EXPECT_EQ(churn.transitions(), 0u);
}

TEST(Churn, SameSeedSameSchedule) {
  const churn_config cfg{2.0, 0.3};
  churn_model a(20, cfg, 9);
  churn_model b(20, cfg, 9);
  for (int i = 0; i <= 200; ++i) {
    const double t = 0.05 * i;
    for (node_id v = 0; v < 20; ++v) EXPECT_EQ(a.is_up(v, t), b.is_up(v, t));
  }
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_GT(a.transitions(), 0u);  // rate 2/s over 10s across 20 nodes
}

TEST(Churn, QueryOrderAcrossNodesDoesNotMatter) {
  const churn_config cfg{1.0, 0.5};
  churn_model fwd(5, cfg, 4);
  churn_model rev(5, cfg, 4);
  std::vector<std::vector<bool>> seen_fwd, seen_rev;
  for (int i = 0; i <= 100; ++i) {
    const double t = 0.1 * i;
    std::vector<bool> f, r;
    for (node_id v = 0; v < 5; ++v) f.push_back(fwd.is_up(v, t));
    for (node_id v = 5; v-- > 0;) r.push_back(rev.is_up(v, t));
    seen_fwd.push_back(f);
    for (std::size_t k = 0; k < r.size(); ++k)
      EXPECT_EQ(r[r.size() - 1 - k], f[k]) << "node " << k << " t=" << t;
  }
}

TEST(Churn, NodesGoDownAndComeBack) {
  churn_model churn(1, churn_config{5.0, 0.2}, 1);
  bool saw_down = false;
  bool recovered = false;
  bool was_down = false;
  for (int i = 0; i <= 2000; ++i) {
    const bool up = churn.is_up(0, 0.01 * i);
    if (!up) saw_down = was_down = true;
    if (up && was_down) recovered = true;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(recovered);
}

}  // namespace
}  // namespace anonpath::net
