// Extension (beyond the paper's loss-free fabric): the reliability-vs-
// anonymity frontier of retransmission-with-backoff. The paper's analysis
// assumes every message reaches R; on a lossy wire a sender must either
// accept loss or retransmit — and every retransmission re-walks a fresh
// path, handing the coalition another independent observation of the same
// message to fuse into its posterior. Sweeping the retry budget at a fixed
// drop probability maps that trade: delivered fraction must climb
// monotonically with the budget while the adversary's mean per-message
// uncertainty must not grow.
//
// Entropy is measured over ALL submitted messages, the way the adversary
// experiences the whole batch: a scored message contributes its posterior
// entropy, an unobserved one the prior log2(N - C) bits. Restricting to
// scored messages only would show the opposite slope — retries push
// weakly-observed messages into the scored set and its mean can rise even
// as total uncertainty falls (a selection effect, not an anonymity gain).

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "bench/claim.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace {

using namespace anonpath;
using namespace anonpath::sim;

constexpr std::uint32_t node_count = 40;
constexpr std::uint32_t compromised = 4;
constexpr std::uint32_t messages = 400;
constexpr std::uint32_t replicas = 6;
constexpr double drop = 0.25;

sim_config frontier_config(std::uint32_t budget, std::uint64_t seed) {
  sim_config cfg;
  cfg.sys = {node_count, compromised};
  cfg.compromised = spread_compromised(node_count, compromised);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = messages;
  cfg.arrival_rate = 100.0;
  cfg.seed = seed;
  cfg.faults.drop_probability = drop;
  cfg.retry.max_retries = budget;
  cfg.retry.timeout = 0.3;
  return cfg;
}

bool emit(std::ostream& os) {
  os << "# ext_retry: reliability-vs-anonymity frontier at drop " << drop
     << " (N=" << node_count << ", C=" << compromised << ", U(1,6), "
     << replicas << " x " << messages << " msgs per point)\n";
  os << "# entropy is per-message over ALL submissions; unobserved messages"
        " count the prior log2(N-C)\n";
  os << "retries,delivered_fraction,delivered_stderr,entropy_bits,"
        "entropy_stderr,retransmits_per_msg\n";
  const double prior =
      std::log2(static_cast<double>(node_count - compromised));
  std::vector<double> delivery, uncertainty;  // per budget, in budget order
  for (const std::uint32_t budget : {0u, 1u, 2u, 3u, 4u, 6u}) {
    stats::running_summary delivered, entropy, retransmits;
    for (std::uint32_t rep = 0; rep < replicas; ++rep) {
      const std::uint64_t seed =
          stats::rng::stream(7, budget * 100 + rep).next_u64();
      sim_config cfg = frontier_config(budget, seed);
      cfg.collect_posteriors = true;
      const auto r = run_simulation(cfg);
      delivered.add(static_cast<double>(r.delivered) /
                    static_cast<double>(r.submitted));
      double bits = prior * static_cast<double>(messages - r.posteriors.size());
      for (const auto& post : r.posteriors)
        for (double p : post)
          if (p > 0.0) bits -= p * std::log2(p);
      entropy.add(bits / static_cast<double>(messages));
      retransmits.add(static_cast<double>(r.retransmissions) /
                      static_cast<double>(r.submitted));
    }
    os << budget << "," << delivered.mean() << "," << delivered.std_error()
       << "," << entropy.mean() << "," << entropy.std_error() << ","
       << retransmits.mean() << "\n";
    delivery.push_back(delivered.mean());
    uncertainty.push_back(entropy.mean());
  }
  os << "\n";
  bool ok = bench::claim(bench::rises(delivery),
                         "delivery does not climb with the retry budget");
  ok &= bench::claim(
      std::is_sorted(uncertainty.begin(), uncertainty.end(), std::greater<>()),
      "entropy grows with the retry budget");
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
