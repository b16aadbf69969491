// Extension (beyond the paper's full-coalition threat model): the
// entropy-vs-coverage-fraction frontier. The paper fixes the adversary at
// "C specific nodes plus the receiver, all reporting"; the
// partial_coverage model instead corrupts each relay independently with
// probability f (Ando–Lysyanskaya–Upfal's fractional setting). Sweeping f
// from 0 to 1 maps how fast sender anonymity collapses as coverage grows —
// the empirical H* must fall monotonically as f -> 1, from ~log2(N-1) at
// f=0 (receiver-only adversary) down to the full-coalition floor of 0 bits
// at f=1. With an honest receiver, f=0 observes nothing, and the series
// falls the same way from its first observed point.

#include <cmath>

#include "bench/claim.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace {

using namespace anonpath;
using namespace anonpath::sim;

constexpr std::uint32_t node_count = 60;
constexpr std::uint32_t messages = 400;
constexpr std::uint32_t replicas = 6;

sim_config sweep_config(double coverage, bool receiver, std::uint64_t seed) {
  sim_config cfg;
  cfg.sys = {node_count, 1};
  cfg.compromised = {0};  // superseded by the coverage draw
  cfg.lengths = path_length_distribution::uniform(1, 8);
  cfg.message_count = messages;
  cfg.seed = seed;
  cfg.adversary.kind = adversary_kind::partial_coverage;
  cfg.adversary.coverage_fraction = coverage;
  cfg.adversary.receiver_compromised = receiver;
  return cfg;
}

bool emit(std::ostream& os) {
  bool ok = true;
  os << "# ext_adversary: empirical H* vs relay coverage fraction f (N="
     << node_count << ", U(1,8), " << replicas << " x " << messages
     << " msgs per point)\n";
  for (const bool receiver : {true, false}) {
    os << "# series: receiver " << (receiver ? "compromised" : "honest")
       << "\n";
    os << "f,entropy_bits,stderr\n";
    std::vector<double> series;  // the observed points, in f order
    for (const double f : {0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0}) {
      // Replicate over seeds so each point averages several coverage draws;
      // the per-replica seed comes from a deterministic stream, so the
      // emitted series are machine-independent.
      stats::running_summary acc;
      for (std::uint32_t rep = 0; rep < replicas; ++rep) {
        const std::uint64_t seed =
            stats::rng::stream(42, rep * 1000 + static_cast<std::uint64_t>(
                                                    f * 100.0))
                .next_u64();
        const auto report = run_simulation(sweep_config(f, receiver, seed));
        if (report.empirical_entropy_bits == report.empirical_entropy_bits)
          acc.add(report.empirical_entropy_bits);
      }
      os << f << ",";
      if (acc.count() > 0) {
        os << acc.mean() << "," << (acc.count() > 1 ? acc.std_error() : 0.0);
        series.push_back(acc.mean());
      } else {
        os << "nan,nan";  // f=0 with an honest receiver observes nothing
      }
      os << "\n";
    }
    const std::string name =
        receiver ? "compromised receiver: " : "honest receiver: ";
    ok &= bench::claim(bench::falls(series),
                       name + "H* does not fall monotonically in f");
    ok &= bench::claim(series.back() < 1e-9,
                       name + "H* at f=1 is above the 0-bit floor");
    if (receiver)
      ok &= bench::claim(
          std::abs(series.front() - std::log2(node_count - 1.0)) < 0.01,
          name + "H* at f=0 is not log2(N-1)");
  }
  os << "\n";
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
