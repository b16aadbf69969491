#include "src/anonymity/entropy.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/stats/bitmap.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"

namespace anonpath {

double safe_log2(double x) noexcept { return x > 0.0 ? std::log2(x) : 0.0; }

double entropy_bits(std::span<const double> probabilities) {
  return summarize_entropy(probabilities).bits;
}

entropy_summary summarize_entropy(std::span<const double> probabilities) {
  // Zeros add +0.0 to the compensated total (an exact no-op) and nothing to
  // the entropy, and cannot beat an earlier entry in the argmax, so the
  // dense pass only marks where the nonzero entries are. A bitmap keeps
  // that mark at one bit per entry, however large the support.
  thread_local std::vector<std::uint64_t> nonzero;
  nonzero.assign((probabilities.size() + 63) / 64, 0);
  entropy_summary out;
  stats::kahan_sum total;
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    const double p = probabilities[i];
    if (p == 0.0) continue;
    ANONPATH_EXPECTS(p >= 0.0);
    total.add(p);
    stats::set_bit(nonzero, i);
    if (probabilities[out.argmax] < p) out.argmax = i;
  }
  const double z = total.value();
  if (z <= 0.0) return out;
  stats::kahan_sum h;
  stats::for_each_set_bit(nonzero, [&](std::size_t i) {
    const double q = probabilities[i] / z;
    h.add(-q * std::log2(q));
  });
  out.bits = h.value();
  return out;
}

double two_level_entropy_bits(double special_weight, double other_weight_each,
                              unsigned k) {
  ANONPATH_EXPECTS(special_weight >= 0.0);
  ANONPATH_EXPECTS(other_weight_each >= 0.0);
  if (k == 0 || other_weight_each == 0.0) return 0.0;
  const double kd = static_cast<double>(k);
  if (special_weight == 0.0) return std::log2(kd);
  const double total = special_weight + kd * other_weight_each;
  const double pu = special_weight / total;
  const double ps = other_weight_each / total;
  return -pu * std::log2(pu) - kd * ps * std::log2(ps);
}

}  // namespace anonpath
