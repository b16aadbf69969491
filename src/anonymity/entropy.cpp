#include "src/anonymity/entropy.hpp"

#include <bit>
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
  const std::size_t n = probabilities.size();
  nonzero.assign((n + 63) / 64, 0);
  entropy_summary out;
  stats::kahan_sum total;
  const auto visit = [&](std::size_t i) {
    const double p = probabilities[i];
    if (p == 0.0) return;
    ANONPATH_EXPECTS(p >= 0.0);
    total.add(p);
    stats::set_bit(nonzero, i);
    if (probabilities[out.argmax] < p) out.argmax = i;
  };
  // Eight entries (64 bytes) whose bit patterns OR to zero once the
  // sign bit is masked off are all +0.0 or -0.0, which visit() skips one by
  // one anyway. Any other word, the tail included, takes the per-entry
  // path, so NaN and negative entries still fail the precondition.
  constexpr std::size_t word = 8;
  constexpr std::uint64_t magnitude_bits = ~(std::uint64_t{1} << 63);
  std::size_t at = 0;
  for (; at + word <= n; at += word) {
    std::uint64_t bits = 0;
    for (std::size_t j = at; j < at + word; ++j)
      bits |= std::bit_cast<std::uint64_t>(probabilities[j]);
    if ((bits & magnitude_bits) == 0) continue;
    for (std::size_t j = at; j < at + word; ++j) visit(j);
  }
  for (; at < n; ++at) visit(at);
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
