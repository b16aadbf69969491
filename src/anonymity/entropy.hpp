#pragma once

#include <cstddef>
#include <span>

namespace anonpath {

/// Shannon entropy in bits of a probability vector. Zero entries contribute
/// zero (lim p->0 of -p log p). Precondition: entries non-negative; the
/// vector need not be normalized — it is normalized internally so callers
/// can pass unnormalized posterior weights.
[[nodiscard]] double entropy_bits(std::span<const double> probabilities);

/// entropy_bits plus the position of the first maximal entry (0 for an
/// empty or all-zero vector), as std::max_element would report it.
struct entropy_summary {
  double bits = 0.0;
  std::size_t argmax = 0;
};

/// Computes entropy_summary in one dense pass (the zero-skipping total, the
/// argmax and the nonzero positions) plus a log pass over the nonzero
/// positions only, so a sparse posterior over a large population costs one
/// dense read. Same precondition as entropy_bits, checked on every nonzero
/// entry (a NaN or negative entry fails it).
[[nodiscard]] entropy_summary summarize_entropy(
    std::span<const double> probabilities);

/// Entropy in bits of the "one special candidate vs k exchangeable others"
/// posterior that every adversary event class of the C=1 analysis reduces
/// to: one candidate with unnormalized weight `special_weight` and `k`
/// candidates each with weight `other_weight_each`.
///
/// Handles all degenerate corners: k == 0 or other weight 0 -> 0 bits
/// (sender pinned); special weight 0 -> log2(k) bits (uniform over others).
/// Preconditions: weights non-negative, k >= 0, and not everything zero
/// unless the event itself has zero probability (then the value is unused;
/// 0 is returned).
[[nodiscard]] double two_level_entropy_bits(double special_weight,
                                            double other_weight_each,
                                            unsigned k);

/// log2 helper guarded against zero/negative input (returns 0 for x <= 0,
/// matching the -p log p convention at p == 0).
[[nodiscard]] double safe_log2(double x) noexcept;

}  // namespace anonpath
