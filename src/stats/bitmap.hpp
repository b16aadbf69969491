#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace anonpath::stats {

/// Marks position i in a bitmap of 64-bit words (bit i % 64 of word i / 64).
constexpr void set_bit(std::span<std::uint64_t> words, std::size_t i) noexcept {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

/// Calls f(i) for every marked position i, ascending. Costs one read per
/// word plus one call per marked position, so a sparse set over a large
/// range is visited at 1/64 of a dense scan.
template <typename F>
void for_each_set_bit(std::span<const std::uint64_t> words, F f) {
  for (std::size_t w = 0; w < words.size(); ++w)
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}

}  // namespace anonpath::stats
