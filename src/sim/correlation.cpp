#include "src/sim/correlation.hpp"

namespace anonpath::sim {

bool payloads_correlate(std::span<const std::byte> a,
                        std::span<const std::byte> b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

double payload_similarity(std::span<const std::byte> a,
                          std::span<const std::byte> b) noexcept {
  if (a.size() != b.size() || a.empty()) return 0.0;
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] == b[i]) ++same;
  return static_cast<double>(same) / static_cast<double>(a.size());
}

double timing_correlation(double t_send, double t_recv, double lo,
                          double hi) noexcept {
  if (!(t_recv > t_send) || hi < lo) return 0.0;
  const double dt = t_recv - t_send;
  // Tolerance keeps boundary delays correlating when the window is
  // degenerate (zero jitter) or dt sits on an edge after rounding.
  const double tol = 1e-9 * (1.0 + hi);
  if (dt < lo - tol || dt > hi + tol) return 0.0;
  const double half = (hi - lo) / 2.0 + tol;
  const double mid = (lo + hi) / 2.0;
  const double score = 1.0 - (dt > mid ? dt - mid : mid - dt) / half;
  return score > 0.0 ? score : 0.0;
}

}  // namespace anonpath::sim
