// Extension E: anonymity degradation, in two operational directions the
// paper's single-message analysis brackets.
//
// 1. Static degradation, on the simulator: a scenario campaign sweeps the
//    compromised-set size against the link drop rate and reports how the
//    adversary's realized posterior entropy, the identified fraction, and
//    delivery decay as the infrastructure degrades: at every drop rate the
//    entropy falls strictly as C grows. (This table used to be a single
//    hand-seeded run per point; the campaign engine gives every cell
//    replicated runs and confidence intervals.)
// 2. Dynamic degradation, across messages: the predecessor-attack family
//    the paper cites as [23] (Wright et al., NDSS 2002) — a sender who
//    keeps talking to the same receiver under fresh per-message rerouting
//    loses entropy with every message; a Crowds-style static path leaks
//    nothing after the first.

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "bench/claim.hpp"
#include "src/anonymity/multi_message.hpp"
#include "src/sim/campaign.hpp"

namespace {

using namespace anonpath;

bool emit(std::ostream& os) {
  bool ok = true;
  // Part 1: campaign over C x drop at N=60, U(1,10), onion transport.
  sim::campaign_grid grid;
  grid.node_counts = {60};
  grid.compromised_counts = {1, 3, 6, 12, 24};
  grid.lengths = {path_length_distribution::uniform(1, 10)};
  grid.drop_probabilities = {0.0, 0.02, 0.10};
  grid.arrival_rates = {100.0};
  grid.message_count = 600;
  sim::campaign_config cfg;
  cfg.replicas = 4;
  cfg.master_seed = 97;
  cfg.threads = 0;  // results are thread-count invariant
  const auto result = sim::run_campaign(grid, cfg);

  os << "# extE part 1: static degradation on the simulator "
        "(N=60, U(1,10), 600 msgs x 4 replicas per cell)\n";
  os << "c,drop,delivered_fraction,entropy_bits,entropy_ci95,"
        "identified_fraction\n";
  for (const auto& cell : result.cells) {
    os << cell.scene.compromised_count << "," << cell.scene.drop_probability
       << "," << cell.delivered_fraction.mean() << ","
       << cell.entropy_bits.mean() << "," << cell.entropy_bits.ci_half_width()
       << "," << cell.identified_fraction.mean() << "\n";
  }
  // Cells run C-major, so each drop rate's entropies arrive in C order.
  std::map<double, std::vector<double>> by_drop;
  for (const auto& cell : result.cells)
    by_drop[cell.scene.drop_probability].push_back(cell.entropy_bits.mean());
  for (const auto& [drop, series] : by_drop)
    ok &= bench::claim(bench::falls(series),
                       "part 1: entropy does not fall strictly in C at drop " +
                           std::to_string(drop));
  os << "\n";

  // Part 2: the cross-message predecessor attack.
  const system_params sys{60, 3};
  const std::vector<node_id> compromised{7, 23, 44};
  const auto d = path_length_distribution::uniform(1, 10);
  os << "# extE part 2: posterior entropy vs messages sent by the same "
        "sender (N=60, C=3, U(1,10), 400 trials)\n";
  for (const bool reroute : {true, false}) {
    const auto curve =
        simulate_degradation(sys, compromised, d, 16, 400, reroute, 97);
    os << "# series: " << (reroute ? "reroute-per-message" : "static-path")
       << "\n";
    os << "k,entropy_bits,ci95,identified_fraction\n";
    std::vector<double> entropy;
    for (const auto& p : curve) {
      os << p.messages << "," << p.mean_entropy_bits << ","
         << 1.96 * p.std_error << "," << p.identified_fraction << "\n";
      entropy.push_back(p.mean_entropy_bits);
    }
    if (reroute)
      ok &= bench::claim(bench::falls(entropy),
                         "part 2: rerouting does not lose entropy with every "
                         "message");
    else
      ok &= bench::claim(std::adjacent_find(entropy.begin(), entropy.end(),
                                            std::not_equal_to<>()) ==
                             entropy.end(),
                         "part 2: a static path leaks after the first message");
  }
  os << "\n";
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
