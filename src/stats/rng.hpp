#pragma once

#include <cstdint>
#include <vector>

namespace anonpath::stats {

/// Deterministic, seedable pseudo-random generator built on xoshiro256++
/// (Blackman & Vigna) seeded through SplitMix64. Self-contained so that every
/// experiment in the repository is exactly reproducible across platforms,
/// independent of the standard library's unspecified distributions.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can also be
/// plugged into <random> machinery where convenient.
class rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single 64-bit seed via SplitMix64,
  /// guaranteeing a non-zero state for any seed.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64 bits.
  result_type operator()() noexcept { return next_u64(); }

  /// Next raw 64 bits (xoshiro256++ step).
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept;

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  /// Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool next_bernoulli(double p);

  /// Ordered uniform sample of `k` distinct values from {0, 1, ..., n-1},
  /// excluding every value in `exclude` (which must be sorted not required;
  /// values outside [0, n) are ignored). Sampling is by partial
  /// Fisher-Yates over the allowed pool, so all arrangements are
  /// equally likely. Costs O(k^2 + |exclude|) when 16 k^2 < n, else O(n).
  /// Preconditions: k <= n - |exclude ∩ [0,n)|.
  [[nodiscard]] std::vector<std::uint32_t> sample_distinct(
      std::uint32_t n, std::uint32_t k, const std::vector<std::uint32_t>& exclude);

  /// Splits off an independently seeded generator; useful for giving each
  /// simulation component its own stream.
  [[nodiscard]] rng split() noexcept;

  /// Deterministic per-shard stream: generator number `stream_index` of the
  /// family identified by `seed`. Unlike split(), the result depends only on
  /// (seed, stream_index) — not on how many values any other stream has
  /// produced — so sharded computations are reproducible for any thread
  /// count and any shard execution order. Streams are decorrelated by
  /// running both inputs through SplitMix64 with distinct mixing constants.
  [[nodiscard]] static rng stream(std::uint64_t seed,
                                  std::uint64_t stream_index) noexcept;

 private:
  std::uint64_t state_[4];
};

/// SplitMix64 step; exposed for tests and for seeding other components.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace anonpath::stats
