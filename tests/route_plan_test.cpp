// Conformance layer for src/net/route_plan: Dijkstra distances and Yen's
// k-shortest-paths pinned against exhaustive simple-path enumeration on
// N <= 8 fixtures, connected components (full and masked), the CSR
// builder pinned to the vector build it replaced, and the route_planner's
// selection model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath::net {
namespace {

std::vector<topology> fixture_graphs() {
  std::vector<topology> graphs;
  graphs.push_back(topology::complete(6));
  graphs.push_back(topology::ring(8, 1));
  graphs.push_back(topology::ring(7, 2));
  graphs.push_back(topology::tiered(7, 3));
  graphs.push_back(topology::trust_weighted(6, 0.5));
  graphs.push_back(topology::random_regular(8, 3, 11));
  return graphs;
}

/// Every simple s->t path in the graph, by DFS. Exponential, which is
/// exactly why it only runs on the N <= 8 fixtures.
void enumerate_paths(const topology& topo, node_id t,
                     std::vector<node_id>& stack, std::vector<bool>& used,
                     std::vector<planned_path>& out) {
  const node_id u = stack.back();
  if (u == t) {
    double cost = 0.0;
    for (std::size_t i = 0; i + 1 < stack.size(); ++i)
      cost += edge_cost(topo.edge_weight(stack[i], stack[i + 1]));
    out.push_back(planned_path{stack, cost});
    return;
  }
  const neighbor_view nbr = topo.adjacency(u);
  for (std::uint32_t i = 0; i < nbr.size; ++i) {
    const node_id v = nbr.ids[i];
    if (used[v]) continue;
    used[v] = true;
    stack.push_back(v);
    enumerate_paths(topo, t, stack, used, out);
    stack.pop_back();
    used[v] = false;
  }
}

std::vector<planned_path> all_simple_paths(const topology& topo, node_id s,
                                           node_id t) {
  std::vector<planned_path> out;
  std::vector<node_id> stack{s};
  std::vector<bool> used(topo.node_count(), false);
  used[s] = true;
  enumerate_paths(topo, t, stack, used, out);
  std::sort(out.begin(), out.end(),
            [](const planned_path& a, const planned_path& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.nodes < b.nodes;
            });
  return out;
}

void check_path_valid(const topology& topo, const planned_path& p, node_id s,
                      node_id t) {
  ASSERT_GE(p.nodes.size(), 2u);
  EXPECT_EQ(p.nodes.front(), s);
  EXPECT_EQ(p.nodes.back(), t);
  std::vector<bool> seen(topo.node_count(), false);
  double cost = 0.0;
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    ASSERT_FALSE(seen[p.nodes[i]]) << "loop in planned path";
    seen[p.nodes[i]] = true;
    if (i + 1 < p.nodes.size()) {
      ASSERT_TRUE(topo.has_edge(p.nodes[i], p.nodes[i + 1]))
          << p.nodes[i] << "->" << p.nodes[i + 1] << " is not an edge";
      cost += edge_cost(topo.edge_weight(p.nodes[i], p.nodes[i + 1]));
    }
  }
  EXPECT_NEAR(p.cost, cost, 1e-12);
}

TEST(RoutePlan, DijkstraMatchesBruteForceDistances) {
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    for (node_id s = 0; s < n; ++s) {
      const shortest_path_tree tree = dijkstra(topo, s);
      ASSERT_EQ(tree.source, s);
      ASSERT_EQ(tree.dist.size(), n);
      ASSERT_EQ(tree.parent.size(), n);
      EXPECT_EQ(tree.dist[s], 0.0);
      EXPECT_EQ(tree.parent[s], no_vertex);
      for (node_id t = 0; t < n; ++t) {
        if (t == s) continue;
        const auto paths = all_simple_paths(topo, s, t);
        ASSERT_FALSE(paths.empty()) << "fixtures are connected";
        EXPECT_NEAR(tree.dist[t], paths.front().cost, 1e-12)
            << topo.config().label() << " " << s << "->" << t;
        // The parent chain is itself a path of exactly that cost.
        double chain_cost = 0.0;
        for (node_id v = t; v != s; v = tree.parent[v]) {
          ASSERT_NE(tree.parent[v], no_vertex);
          chain_cost += edge_cost(topo.edge_weight(tree.parent[v], v));
        }
        EXPECT_NEAR(chain_cost, tree.dist[t], 1e-12);
      }
    }
  }
}

TEST(RoutePlan, ShortestPathMatchesTree) {
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    const shortest_path_tree tree = dijkstra(topo, 0);
    for (node_id t = 1; t < n; ++t) {
      const auto p = shortest_path(topo, 0, t);
      ASSERT_TRUE(p.has_value());
      check_path_valid(topo, *p, 0, t);
      EXPECT_NEAR(p->cost, tree.dist[t], 1e-12);
    }
  }
}

TEST(RoutePlan, YenMatchesBruteForceEnumeration) {
  // Exhaustive pin: for every (s, t) pair of every fixture and k in
  // {1, 3, 5}, Yen's result must be valid loopless paths, distinct,
  // best-first, and its cost sequence must equal the first k costs of the
  // fully enumerated, (cost, lexicographic) sorted simple-path list. Cost
  // ties between distinct equal-cost paths may legally resolve in either
  // order, so the sequences are compared by cost, not node identity.
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    for (node_id s = 0; s < n; ++s) {
      for (node_id t = 0; t < n; ++t) {
        if (t == s) continue;
        const auto all = all_simple_paths(topo, s, t);
        for (std::uint32_t k : {1u, 3u, 5u}) {
          const auto got = k_shortest_paths(topo, s, t, k);
          const std::size_t want = std::min<std::size_t>(k, all.size());
          ASSERT_EQ(got.size(), want)
              << topo.config().label() << " " << s << "->" << t << " k=" << k;
          for (std::size_t i = 0; i < got.size(); ++i) {
            check_path_valid(topo, got[i], s, t);
            EXPECT_NEAR(got[i].cost, all[i].cost, 1e-12)
                << topo.config().label() << " " << s << "->" << t
                << " rank " << i;
            if (i > 0) {
              EXPECT_GE(got[i].cost, got[i - 1].cost - 1e-12);
              EXPECT_NE(got[i].nodes, got[i - 1].nodes);
            }
            // Every returned path must exist in the enumeration.
            EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                                    [&](const planned_path& p) {
                                      return p.nodes == got[i].nodes;
                                    }));
          }
          // Distinct across the whole result, not just neighbors.
          for (std::size_t i = 0; i < got.size(); ++i)
            for (std::size_t j = i + 1; j < got.size(); ++j)
              EXPECT_NE(got[i].nodes, got[j].nodes);
        }
      }
    }
  }
}

TEST(RoutePlan, YenIsDeterministic) {
  const auto topo = topology::random_regular(8, 3, 5);
  const auto a = k_shortest_paths(topo, 0, 5, 6);
  const auto b = k_shortest_paths(topo, 0, 5, 6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(RoutePlan, ConnectedComponentsWholeGraphIsOne) {
  for (const auto& topo : fixture_graphs()) {
    const auto comp = connected_components(topo);
    ASSERT_EQ(comp.size(), topo.node_count());
    for (std::uint32_t label : comp) EXPECT_EQ(label, 0u);
  }
}

TEST(RoutePlan, MaskedComponentsSplitTheRing) {
  // Cutting nodes 0 and 5 out of an 8-ring leaves two arcs: {1,2,3,4} and
  // {6,7}. Labels are 0-based in first-discovery order; inactive nodes get
  // the no_vertex sentinel.
  const auto topo = topology::ring(8, 1);
  std::vector<bool> active(8, true);
  active[0] = false;
  active[5] = false;
  const auto comp = connected_components(topo, active);
  ASSERT_EQ(comp.size(), 8u);
  EXPECT_EQ(comp[0], no_vertex);
  EXPECT_EQ(comp[5], no_vertex);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_EQ(comp[6], comp[7]);
  EXPECT_NE(comp[1], comp[6]);
}

TEST(RoutePlan, CsrAdjacencyMatchesVectorMode) {
  // The counting-sort CSR builder against the per-node vector build it
  // replaced (tests/pre_change_reference.hpp), on every family at several
  // N: adjacency(u) must be element-identical — ids, weights, cumulative
  // tables — and the derived accessors, the closed-form edge count,
  // sampling draws and Dijkstra trees must agree exactly.
  const auto make_cfg = [](topology_kind kind, std::uint32_t param,
                           double decay = 0.5) {
    topology_config c;
    c.kind = kind;
    c.ring_k = param;
    c.degree = param;
    c.graph_seed = param + 7;
    c.tiers = param;
    c.trust_decay = decay;
    return c;
  };
  const std::vector<topology_config> configs = {
      topology_config{},  // complete
      make_cfg(topology_kind::ring, 1),
      make_cfg(topology_kind::ring, 2),
      make_cfg(topology_kind::random_regular, 2),
      make_cfg(topology_kind::random_regular, 3),
      make_cfg(topology_kind::random_regular, 4),
      make_cfg(topology_kind::tiered, 2),
      make_cfg(topology_kind::tiered, 3),
      make_cfg(topology_kind::tiered, 7),
      make_cfg(topology_kind::trust_weighted, 0, 0.6),
      make_cfg(topology_kind::trust_weighted, 0, 1.0),
  };
  std::uint32_t checked = 0;
  for (const std::uint32_t n : {2u, 5u, 8u, 24u, 101u, 400u})
    for (const auto& cfg : configs) {
      if (!cfg.valid_for(n)) continue;
      ++checked;
      const pre_change::vector_topology vec(n, cfg);
      const topology csr = topology::make(n, cfg);
      const std::string where = cfg.label() + " N=" + std::to_string(n);
      EXPECT_EQ(edge_count(n, cfg), generate_edges(n, cfg).size()) << where;
      EXPECT_EQ(vec.edge_count(), csr.edge_count()) << where;
      EXPECT_EQ(edge_count(n, cfg), csr.edge_count()) << where;
      EXPECT_EQ(vec.min_degree(), csr.min_degree()) << where;
      EXPECT_EQ(vec.max_degree(), csr.max_degree()) << where;
      EXPECT_TRUE(csr.connected());
      for (node_id u = 0; u < n; ++u) {
        const neighbor_view a = vec.adjacency(u);
        const neighbor_view b = csr.adjacency(u);
        ASSERT_EQ(a.size, b.size) << where << " node " << u;
        for (std::uint32_t i = 0; i < a.size; ++i) {
          EXPECT_EQ(a.ids[i], b.ids[i]);
          EXPECT_EQ(a.weights[i], b.weights[i]);
          EXPECT_EQ(a.cum[i], b.cum[i]);
        }
        EXPECT_EQ(vec.degree(u), csr.degree(u));
        EXPECT_EQ(vec.total_weight(u), csr.total_weight(u));
        // Identical rng state must produce identical walk draws.
        stats::rng ga(42 + u), gb(42 + u);
        for (int step = 0; step < 16; ++step)
          EXPECT_EQ(vec.sample_neighbor(u, ga), csr.sample_neighbor(u, gb))
              << where << " node " << u;
      }
      // Route planning sees the same graph.
      for (const node_id source : {node_id{0}, n / 2, n - 1}) {
        const shortest_path_tree ta = vec.dijkstra(source);
        const shortest_path_tree tb = dijkstra(csr, source);
        for (node_id v = 0; v < n; ++v) {
          EXPECT_EQ(ta.dist[v], tb.dist[v]) << where;
          EXPECT_EQ(ta.parent[v], tb.parent[v]) << where;
        }
      }
    }
  EXPECT_GE(checked, 50u);
}

TEST(RoutePlan, RoutingConfigValidityAndLabels) {
  routing_config walk;
  EXPECT_FALSE(walk.planned());
  EXPECT_TRUE(walk.valid());
  EXPECT_EQ(walk.label(), "walk");
  routing_config kp;
  kp.kind = route_select::kpaths;
  kp.k = 4;
  EXPECT_TRUE(kp.planned());
  EXPECT_TRUE(kp.valid());
  EXPECT_EQ(kp.label(), "kpaths(4)");
  kp.k = 0;
  EXPECT_FALSE(kp.valid());
  kp.k = 65;
  EXPECT_FALSE(kp.valid());
  kp.k = 64;
  EXPECT_TRUE(kp.valid());
}

TEST(RoutePlan, PlannerRoutesAreValidAndDeterministic) {
  const auto topo = topology::random_regular(12, 4, 3);
  routing_config cfg;
  cfg.kind = route_select::kpaths;
  cfg.k = 3;
  route_planner pa(topo, cfg), pb(topo, cfg);
  stats::rng ga = stats::rng::stream(99, 1), gb = stats::rng::stream(99, 1);
  for (int i = 0; i < 200; ++i) {
    const node_id sender = static_cast<node_id>(i % 12);
    const route ra = pa.sample_route(sender, ga);
    const route rb = pb.sample_route(sender, gb);
    EXPECT_EQ(ra.sender, sender);
    EXPECT_EQ(ra.hops, rb.hops) << "same stream, same route";
    // Planned paths are loopless: 1 <= hops <= N - 1, the exit differs
    // from the sender, and each hop follows a graph edge.
    ASSERT_GE(ra.hops.size(), 1u);
    ASSERT_LE(ra.hops.size(), 11u);
    EXPECT_NE(ra.hops.back(), sender);
    node_id prev = sender;
    std::vector<bool> seen(12, false);
    seen[sender] = true;
    for (node_id h : ra.hops) {
      EXPECT_TRUE(topo.has_edge(prev, h));
      EXPECT_FALSE(seen[h]) << "planned route revisits " << h;
      seen[h] = true;
      prev = h;
    }
  }
  EXPECT_GT(pa.planned_pairs(), 0u);
  EXPECT_LE(pa.planned_pairs(), 12u * 11u);
}

TEST(RoutePlan, PlannerExitLawCoversAllTargets) {
  // exit ~ Uniform(V \ {sender}): over many draws from one sender, every
  // other node must appear as the terminal hop.
  const auto topo = topology::ring(6, 2);
  routing_config cfg;
  cfg.kind = route_select::kpaths;
  cfg.k = 2;
  route_planner planner(topo, cfg);
  stats::rng gen(7);
  std::vector<bool> exit_seen(6, false);
  for (int i = 0; i < 400; ++i) {
    const route r = planner.sample_route(0, gen);
    exit_seen[r.hops.back()] = true;
  }
  EXPECT_FALSE(exit_seen[0]);
  for (node_id v = 1; v < 6; ++v)
    EXPECT_TRUE(exit_seen[v]) << "exit " << v << " never drawn";
}

TEST(RoutePlan, KpathSupportRestrictedSets) {
  // Ring(8, 1), source 0, exit 2, k = 1: the one shortest path is 0-1-2,
  // so the support is exactly {0, 1, 2}. Raising k to 2 admits the
  // long-way-around path and the support becomes the whole cycle.
  const auto topo = topology::ring(8, 1);
  const auto tight = kpath_support(topo, 1, {0}, {2});
  ASSERT_EQ(tight.size(), 8u);
  for (node_id v = 0; v < 8; ++v)
    EXPECT_EQ(tight[v], v <= 2) << "node " << v;
  const auto wide = kpath_support(topo, 2, {0}, {2});
  for (node_id v = 0; v < 8; ++v) EXPECT_TRUE(wide[v]);
}

TEST(RoutePlan, KpathSupportAllExitsIsFull) {
  // The sim model's uniform exit law: with every node an exit, every node
  // is on some planned path — the mask degenerates to full support.
  const auto topo = topology::random_regular(10, 3, 2);
  std::vector<node_id> all;
  for (node_id v = 0; v < 10; ++v) all.push_back(v);
  const auto support = kpath_support(topo, 1, {0}, all);
  for (node_id v = 0; v < 10; ++v) EXPECT_TRUE(support[v]);
}

TEST(RoutePlan, DijkstraOnCsrAtModerateScale) {
  // A fast stand-in for the CI million-node smoke: 50k-node sparse CSR
  // graph, full Dijkstra, everything reachable.
  topology_config cfg;
  cfg.kind = topology_kind::random_regular;
  cfg.degree = 4;
  cfg.graph_seed = 17;
  const auto topo = topology::make(50000, cfg);
  EXPECT_EQ(topo.edge_count(), 100000u);
  const auto tree = dijkstra(topo, 12345);
  std::uint64_t reachable = 0;
  for (double d : tree.dist)
    if (d < std::numeric_limits<double>::infinity()) ++reachable;
  EXPECT_EQ(reachable, 50000u);
}

}  // namespace
}  // namespace anonpath::net
