// Extension F: simple vs. complicated paths (paper Sec. 3.2 taxonomy).
// Crowds and Onion Routing II allow cycles; Freedom forbids them. This
// program quantifies what cycles are worth, exactly, on a small system where
// both models can be enumerated exhaustively: cycles never lower H*. The
// two degrees are equal for l <= 1, where no cycle fits, and cycles raise
// H* at every longer fixed length and under the geometric coin.

#include <string>

#include "bench/claim.hpp"
#include "src/anonymity/brute_force.hpp"
#include "src/anonymity/cyclic.hpp"

namespace {

using namespace anonpath;

constexpr system_params sys{8, 1};
const std::vector<node_id> compromised{3};

bool emit(std::ostream& os) {
  bool ok = true;
  os << "# extF: simple vs complicated (cycle-allowing) paths, exact "
        "enumeration (N=8, C=1)\n";
  os << "l,simple,cyclic,cyclic_gain\n";
  for (path_length l = 0; l <= 6; ++l) {
    const auto d = path_length_distribution::fixed(l);
    const brute_force_analyzer simple(sys, compromised, d);
    const cyclic_brute_force_analyzer cyclic(sys, compromised, d);
    os << l << "," << simple.anonymity_degree() << ","
       << cyclic.anonymity_degree() << ","
       << (cyclic.anonymity_degree() - simple.anonymity_degree()) << "\n";
    const double gain = cyclic.anonymity_degree() - simple.anonymity_degree();
    ok &= bench::claim(l <= 1 ? gain == 0.0 : gain > 0.0,
                       "F(" + std::to_string(l) +
                           "): the cyclic gain has the wrong sign");
  }
  // Variable-length comparison: the Crowds-style geometric coin.
  const auto geo = path_length_distribution::geometric(0.6, 1, 6);
  const brute_force_analyzer simple_geo(sys, compromised, geo);
  const cyclic_brute_force_analyzer cyclic_geo(sys, compromised, geo);
  os << "# geometric(pf=0.6): simple=" << simple_geo.anonymity_degree()
     << " cyclic=" << cyclic_geo.anonymity_degree() << "\n\n";
  ok &= bench::claim(
      cyclic_geo.anonymity_degree() > simple_geo.anonymity_degree(),
      "geometric(pf=0.6): cycles do not raise H*");
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
