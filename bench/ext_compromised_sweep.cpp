// Extension A (beyond the paper's C=1 evaluation): anonymity degree versus
// the number of compromised nodes, estimated with the general posterior
// engine via Monte Carlo. The paper's model (Sec. 4) covers arbitrary C but
// its figures only show C=1; this program maps the degradation curve: every
// series falls strictly as C grows, and the C=1 F(5) endpoint straddles the
// closed form within its 95% confidence interval.

#include <cmath>

#include "bench/claim.hpp"
#include "src/anonymity/analytic.hpp"
#include "src/anonymity/monte_carlo.hpp"

namespace {

using namespace anonpath;

constexpr std::uint32_t node_count = 100;
constexpr std::uint64_t samples = 4000;

std::vector<node_id> spread_compromised(std::uint32_t c) {
  return anonpath::spread_compromised(node_count, c);
}

bool emit(std::ostream& os) {
  bool ok = true;
  // All cores, fixed shard count: the emitted series are identical on any
  // machine regardless of its thread count (mc_config determinism contract).
  mc_config cfg;
  cfg.threads = 0;
  cfg.shards = 32;
  os << "# extA: anonymity degree vs number of compromised nodes (N=100)\n";
  os << "# MC with exact per-observation posteriors, " << samples
     << " samples, 95% CI half-width in last column\n";
  double anchor = NAN, anchor_ci = 0.0;  // the first point: F(5) at C=1
  for (const auto& lengths : {path_length_distribution::fixed(5),
                              path_length_distribution::uniform(1, 10),
                              path_length_distribution::fixed(51)}) {
    os << "# series: " << lengths.label() << "\n";
    os << "C," << lengths.label() << ",ci95\n";
    std::vector<double> series;
    for (std::uint32_t c : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const system_params sys{node_count, c};
      const auto est = estimate_anonymity_degree(
          sys, spread_compromised(c), lengths, samples, 1000 + c, cfg);
      os << c << "," << est.degree << "," << est.ci95() << "\n";
      series.push_back(est.degree);
      if (std::isnan(anchor)) {
        anchor = est.degree;
        anchor_ci = est.ci95();
      }
    }
    ok &= bench::claim(bench::falls(series),
                       lengths.label() + ": H* does not fall strictly in C");
  }
  // C=1 anchor: MC must straddle the closed form.
  const system_params sys1{node_count, 1};
  const double closed =
      anonymity_degree(sys1, path_length_distribution::fixed(5));
  os << "# anchor: closed-form C=1 F(5) = " << closed << "\n\n";
  ok &= bench::claim(std::abs(anchor - closed) <= anchor_ci,
                     "C=1 F(5): the MC interval misses the closed form");
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
