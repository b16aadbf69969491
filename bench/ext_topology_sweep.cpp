// Extension (beyond the paper's clique assumption): the entropy-vs-degree
// frontier. The paper's Sec. 3.1 model lets every node forward to every
// other node; real mix networks route over restricted graphs, and
// restricting the graph hands the adversary structure — fewer consistent
// paths per observation. Sweeping ring connectivity k from nearest-neighbor
// up to the clique maps how sender anonymity grows with graph degree and
// converges, from below, to the complete-graph ceiling (the walk model's
// exact H* on the clique): the ring series rises strictly with degree and
// stays below the ceiling. A tiered (Tor-like) and a trust-weighted series
// sit alongside for the same node budget.

#include <vector>

#include "bench/claim.hpp"
#include "src/net/topology.hpp"
#include "src/net/topology_mc.hpp"

namespace {

using namespace anonpath;

constexpr std::uint32_t node_count = 24;
constexpr std::uint32_t compromised = 2;
constexpr std::uint64_t samples = 30000;

path_length_distribution lengths() {
  return path_length_distribution::uniform(1, 6);
}

net::topology_mc_estimate sweep_point(const net::topology_config& cfg) {
  return net::estimate_topology_degree(
      {node_count, compromised}, spread_compromised(node_count, compromised),
      lengths(), cfg, samples, /*seed=*/42, /*threads=*/0);
}

bool emit(std::ostream& os) {
  os << "# ext_topology: walk-model H* vs graph degree (N=" << node_count
     << ", C=" << compromised << ", U(1,6), " << samples
     << " samples per point)\n";
  const auto ceiling = sweep_point(net::topology_config{});
  os << "# clique ceiling: H* = " << ceiling.degree << " +/- "
     << ceiling.ci95() << " bits (degree " << node_count - 1 << ")\n";
  os << "# series: ring(k), k = 1.." << (node_count - 1) / 2 << "\n";
  os << "degree,entropy_bits,ci95\n";
  std::vector<double> ring;  // per k, in k order
  for (std::uint32_t k = 1; 2 * k <= node_count - 1; ++k) {
    net::topology_config cfg;
    cfg.kind = net::topology_kind::ring;
    cfg.ring_k = k;
    const auto est = sweep_point(cfg);
    os << 2 * k << "," << est.degree << "," << est.ci95() << "\n";
    ring.push_back(est.degree);
  }
  os << node_count - 1 << "," << ceiling.degree << "," << ceiling.ci95()
     << "\n";

  os << "# series: alternatives at the same node budget\n";
  os << "topology,entropy_bits,ci95\n";
  for (const auto tiers : {2u, 3u, 4u}) {
    net::topology_config cfg;
    cfg.kind = net::topology_kind::tiered;
    cfg.tiers = tiers;
    const auto est = sweep_point(cfg);
    os << cfg.label() << "," << est.degree << "," << est.ci95() << "\n";
  }
  for (const double decay : {0.2, 0.5, 0.8}) {
    net::topology_config cfg;
    cfg.kind = net::topology_kind::trust_weighted;
    cfg.trust_decay = decay;
    const auto est = sweep_point(cfg);
    os << cfg.label() << "," << est.degree << "," << est.ci95() << "\n";
  }
  os << "\n";
  bool ok = bench::claim(bench::rises(ring),
                         "ring H* does not rise with degree");
  ok &= bench::claim(ring.back() < ceiling.degree,
                     "ring H* reaches the clique ceiling");
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
