// Extension B: the Crowds / Onion-Routing-II coin-flip (geometric) strategy
// — the paper's Theorem 2 family — compared at equal mean against fixed,
// uniform, and the optimum. Answers "is the Crowds coin a good length
// distribution?" quantitatively: the optimum is at least as anonymous as
// the coin, the fixed length and the best uniform at every mean, and
// Theorem 2's closed form matches the coin's pmf degree.

#include <cmath>
#include <string>

#include "bench/claim.hpp"
#include "src/anonymity/closed_forms.hpp"
#include "src/anonymity/optimizer.hpp"

namespace {

using namespace anonpath;

constexpr system_params sys{100, 1};

bool emit(std::ostream& os) {
  bool ok = true;
  os << "# extB: geometric (Crowds pf coin) vs fixed vs best-uniform vs "
        "optimal at equal mean (N=100, C=1)\n";
  os << "mean,pf,Geom,F,bestU,Opt\n";
  for (double mean : {2.0, 3.0, 4.0, 5.0, 8.0, 12.0, 20.0, 30.0}) {
    const double pf = 1.0 - 1.0 / mean;  // geometric mean = 1/(1-pf)
    const auto geom = path_length_distribution::geometric(pf, 1, 99);
    const double h_geom = anonymity_degree(sys, geom);
    const double h_fixed =
        theorem1_fixed_length(100, static_cast<path_length>(mean));
    const double h_best_u = best_uniform_for_mean(sys, mean, 99).degree;
    const double h_opt = optimize_for_mean(sys, mean, 99).degree;
    os << mean << "," << pf << "," << h_geom << "," << h_fixed << ","
       << h_best_u << "," << h_opt << "\n";
    ok &= bench::claim(h_opt >= h_geom && h_opt >= h_fixed && h_opt >= h_best_u,
                       "mean " + std::to_string(static_cast<int>(mean)) +
                           ": a comparison family beats the optimum");
  }
  const double closed = theorem2_geometric(100, 0.75);
  os << "# Theorem-2 closed form at pf=0.75: " << closed << "\n\n";
  ok &= bench::claim(
      std::abs(closed - anonymity_degree(
                            sys, path_length_distribution::geometric(
                                     0.75, 1, 99))) < 1e-9,
      "Theorem 2 at pf=0.75 disagrees with the geometric pmf's degree");
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
