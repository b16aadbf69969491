// Extension: route planning. The emitted series maps how planned
// (k-shortest-path) routing trades anonymity against path cost on a mid-
// size graph. As k grows, the sender's route distribution spreads from the
// deterministic shortest path over longer alternatives: mean hops climb
// with k, and the empirical H* falls as the routes lengthen. Every planned
// point stays above the walk-model reference, because the adversary scores
// planned routes with the walk-model engine under a diffuse uniform(1, N-1)
// length prior, wider than the walk's own U(1,6).

#include <string>
#include <vector>

#include "bench/claim.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

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

bool emit(std::ostream& os) {
  bool ok = true;
  os << "# ext_route_plan: planned-route anonymity vs k (N=" << node_count
     << ", C=" << compromised << ", regular(4), 400 msgs per point)\n";
  const auto walk = kpaths_point(0);
  os << "# walk-model reference: H* = " << walk.empirical_entropy_bits
     << " bits, mean hops " << walk.realized_hops.mean() << "\n";
  os << "k,entropy_bits,mean_hops,identified_fraction\n";
  std::vector<double> entropy, hops;  // per k, in k order
  for (std::uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
    const auto r = kpaths_point(k);
    os << k << "," << r.empirical_entropy_bits << ","
       << r.realized_hops.mean() << "," << r.identified_fraction << "\n";
    entropy.push_back(r.empirical_entropy_bits);
    hops.push_back(r.realized_hops.mean());
    ok &= bench::claim(r.empirical_entropy_bits > walk.empirical_entropy_bits,
                       "kpaths:" + std::to_string(k) +
                           " is below the walk-model reference");
  }
  os << "\n";
  ok &= bench::claim(bench::rises(hops), "mean hops do not climb with k");
  ok &= bench::claim(bench::falls(entropy), "H* does not fall with k");
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
