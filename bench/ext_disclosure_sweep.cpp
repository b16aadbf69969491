// Extension (beyond the paper's single-message analysis): the longitudinal
// disclosure frontier. The paper's optimal length strategy bounds what one
// observation leaks; a persistent sender leaks through *round membership*
// no matter how good the per-message strategy is. This sweep maps
// rounds-to-identification against background volume (the threshold-mix
// batch size): more background per round means more cover per observation,
// so identification should take monotonically more rounds as the batch
// grows, for every attack — the longitudinal analogue of the paper's
// entropy-vs-length frontier.

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bench/claim.hpp"
#include "src/attack/disclosure.hpp"
#include "src/workload/population.hpp"

namespace {

using namespace anonpath;

constexpr std::uint32_t users = 5000;
constexpr std::uint32_t receivers = 400;
constexpr std::uint32_t max_rounds = 4000;

workload::population_config sweep_config(std::uint32_t round_size,
                                         std::uint64_t seed) {
  workload::population_config cfg;
  cfg.seed = seed;
  cfg.user_count = users;
  cfg.receiver_count = receivers;
  cfg.round_count = max_rounds;
  cfg.persistent_pairs = 1;
  cfg.round_size = round_size;
  return cfg;
}

bool emit(std::ostream& os) {
  os << "# ext_disclosure: rounds to identification vs background volume "
        "(U="
     << users << ", P=" << receivers << " receivers, <= " << max_rounds
     << " rounds)\n";
  // The set-theoretic attack calibrates at mass > 0.99; the statistical
  // estimator's posterior spreads residual noise mass over the whole
  // population, so its operating point is a lower mass threshold.
  os << "# thresholds: intersection/bayes 0.99, sda 0.5\n";
  os << "round_size,intersection_rounds,sda_rounds,bayes_rounds\n";
  const attack::attack_kind kinds[] = {attack::attack_kind::intersection,
                                       attack::attack_kind::sda,
                                       attack::attack_kind::sequential_bayes};
  // Rounds to identification per attack, in batch-size order; a batch that
  // is never identified counts as infinitely many rounds.
  std::vector<double> rounds[std::size(kinds)];
  for (const std::uint32_t b : {4u, 8u, 16u, 32u, 64u}) {
    const workload::population pop(sweep_config(b, 97));
    os << b;
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      const attack::attack_kind kind = kinds[k];
      const double threshold = kind == attack::attack_kind::sda ? 0.5 : 0.99;
      auto engine = attack::make_attack(kind, receivers);
      const auto result =
          attack::run_workload_attack(pop, 0, *engine, threshold, 1);
      if (result.identified_round)
        os << "," << *result.identified_round;
      else
        os << ",>" << max_rounds;
      rounds[k].push_back(result.identified_round
                              ? *result.identified_round
                              : std::numeric_limits<double>::infinity());
    }
    os << "\n";
  }
  os << "\n";
  bool ok = true;
  for (std::size_t k = 0; k < std::size(kinds); ++k)
    ok &= bench::claim(std::is_sorted(rounds[k].begin(), rounds[k].end()),
                       std::string(attack::attack_kind_label(kinds[k])) +
                           ": rounds to identify shrink as the batch grows");
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
