// E-voting scenario (the paper's Sec. 1 motivating application): ballots
// must not be traceable to voters. Runs the full simulated onion network —
// layered encryption, per-hop peeling, a passive adversary with agents at
// compromised nodes and at the (compromised) tally server — and reports how
// well each routing policy protects the voters, against the analytic
// prediction.
//
// Build & run:  ./build/examples/evoting_sim

#include <cstdio>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/optimizer.hpp"
#include "src/sim/simulator.hpp"

int main() {
  using namespace anonpath;

  // 60 voters, 2 colluding compromised relays, tally server compromised.
  sim::sim_config cfg;
  cfg.sys = {60, 2};
  cfg.compromised = {11, 42};
  cfg.message_count = 3000;  // ballots
  cfg.arrival_rate = 120.0;
  cfg.seed = 1789;

  std::printf("E-voting: 60 voters, 2 compromised relays + compromised tally "
              "server, 3000 ballots\n");
  std::printf("ceiling log2(60) = %.4f bits\n\n", max_anonymity_degree(cfg.sys));
  std::printf("%-22s %10s %12s %12s %12s %10s\n", "routing policy", "mean len",
              "latency ms", "H* empirical", "identified", "top1-acc");

  const auto policies = {
      path_length_distribution::fixed(0),   // naive direct submission
      path_length_distribution::fixed(1),   // Anonymizer-style proxy
      path_length_distribution::fixed(3),   // Freedom-style
      path_length_distribution::fixed(5),   // Onion-Routing-I-style
      path_length_distribution::uniform(2, 14),
      // The analytic optimizer covers C = 1 only, so the mean-8 optimum is
      // computed for one compromised relay and then run against two.
      path_length_distribution::from_pmf(
          optimize_for_mean({60, 1}, 8.0, 59).distribution.dense_pmf(),
          "opt(8) tuned at C=1"),
  };
  for (const auto& policy : policies) {
    cfg.lengths = policy;
    const auto r = sim::run_simulation(cfg);
    std::printf("%-22s %10.2f %12.2f %12.4f %11.1f%% %9.1f%%\n",
                policy.label().c_str(), policy.mean(),
                r.end_to_end_latency.mean() * 1000.0,
                r.empirical_entropy_bits, 100.0 * r.identified_fraction,
                100.0 * r.top1_accuracy);
  }

  std::printf(
      "\n'identified' = ballots whose sender the adversary pins with >99%%\n"
      "posterior confidence; 'top1-acc' = how often the adversary's best\n"
      "guess is the true voter. Direct submission exposes every ballot;\n"
      "the optimized variable-length policy costs ~8 hops of latency and\n"
      "keeps the posterior near the ceiling.\n");
  return 0;
}
