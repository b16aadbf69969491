// Extension: route planning at scale. The emitted series maps how planned
// (k-shortest-path) routing trades anonymity against path cost on a mid-
// size graph — as k grows, the sender's route distribution spreads from
// the deterministic shortest path toward the walk's diffusion, and the
// empirical H* climbs toward the walk-model ceiling. The timing section
// covers the new large-graph hot paths: CSR construction and full
// Dijkstra up to a million nodes, Yen per-pair planning, and the planner's
// per-route draw.

#include <benchmark/benchmark.h>

#include <limits>

#include "bench/bench_common.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace anonpath;

constexpr std::uint32_t node_count = 24;
constexpr std::uint32_t compromised = 2;

sim::sim_report kpaths_point(std::uint32_t k) {
  sim::sim_config cfg;
  cfg.sys = {node_count, compromised};
  cfg.compromised = spread_compromised(node_count, compromised);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 400;
  cfg.seed = 42;
  cfg.topology.kind = net::topology_kind::random_regular;
  cfg.topology.degree = 4;
  if (k > 0) {
    cfg.routing.kind = net::route_select::kpaths;
    cfg.routing.k = k;
  }
  return sim::run_simulation(cfg);
}

void emit(std::ostream& os) {
  os << "# ext_route_plan: planned-route anonymity vs k (N=" << node_count
     << ", C=" << compromised << ", regular(4), 400 msgs per point)\n";
  const auto walk = kpaths_point(0);
  os << "# walk-model reference: H* = " << walk.empirical_entropy_bits
     << " bits, mean hops " << walk.realized_hops.mean() << "\n";
  os << "k,entropy_bits,mean_hops,identified_fraction\n";
  for (std::uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
    const auto r = kpaths_point(k);
    os << k << "," << r.empirical_entropy_bits << ","
       << r.realized_hops.mean() << "," << r.identified_fraction << "\n";
  }
  os << "\n";
}

net::topology_config regular_config(std::uint32_t degree) {
  net::topology_config cfg;
  cfg.kind = net::topology_kind::random_regular;
  cfg.degree = degree;
  cfg.graph_seed = 17;
  return cfg;
}

// Args are {node_count, degree}. The d >= 3 generator's swap-mixing pass
// is deliberately pinned (graphs are golden-tested per seed) and costs
// 20*N*d hash-set swaps, so the million-node points ride the O(N) random-
// cycle generator (d = 2) and the richer degree is timed at 1e5.
void BM_CsrConstruction(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto cfg = regular_config(static_cast<std::uint32_t>(state.range(1)));
  for (auto _ : state) {
    const net::topology topo = net::topology::make(n, cfg);
    benchmark::DoNotOptimize(topo.edge_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CsrConstruction)
    ->Args({10000, 4})
    ->Args({100000, 4})
    ->Args({1000000, 2})
    ->Unit(benchmark::kMillisecond);

void BM_DijkstraFullTree(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const net::topology topo = net::topology::make(
      n, regular_config(static_cast<std::uint32_t>(state.range(1))));
  node_id source = 0;
  for (auto _ : state) {
    const auto tree = net::dijkstra(topo, source);
    benchmark::DoNotOptimize(tree.dist[n - 1]);
    source = (source + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DijkstraFullTree)
    ->Args({10000, 4})
    ->Args({100000, 4})
    ->Args({1000000, 2})
    ->Unit(benchmark::kMillisecond);

void BM_YenKShortest(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const net::topology topo = net::topology::make(10000, regular_config(4));
  stats::rng gen(3);
  for (auto _ : state) {
    const auto s = static_cast<node_id>(gen.next_below(10000));
    auto t = static_cast<node_id>(gen.next_below(9999));
    if (t >= s) ++t;
    benchmark::DoNotOptimize(net::k_shortest_paths(topo, s, t, k));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_YenKShortest)->Arg(1)->Arg(4)->Arg(16);

void BM_PlannerSampleRoute(benchmark::State& state) {
  // Steady-state draw cost once the pair cache is warm: the per-message
  // price a kpaths simulation pays.
  const net::topology topo = net::topology::make(200, regular_config(4));
  net::routing_config cfg;
  cfg.kind = net::route_select::kpaths;
  cfg.k = 4;
  net::route_planner planner(topo, cfg);
  stats::rng gen = stats::rng::stream(9, 1);
  route r;
  for (auto _ : state) {
    const auto sender = static_cast<node_id>(gen.next_below(200));
    r = planner.sample_route(sender, gen);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlannerSampleRoute);

}  // namespace

int main(int argc, char** argv) {
  return anonpath::bench::figure_main(argc, argv, emit);
}
