#include "src/stats/rng.hpp"

#include <algorithm>
#include <utility>

#include "src/stats/contract.hpp"

namespace anonpath::stats {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

rng::rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro256++ requires a not-all-zero state; SplitMix64 cannot produce
  // four consecutive zeros, but keep the guarantee explicit.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[3] = 1;
}

std::uint64_t rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t rng::next_below(std::uint64_t bound) {
  ANONPATH_EXPECTS(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (-bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t rng::next_int(std::int64_t lo, std::int64_t hi) {
  ANONPATH_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool rng::next_bernoulli(double p) {
  ANONPATH_EXPECTS(p >= 0.0 && p <= 1.0);
  return next_double() < p;
}

std::vector<std::uint32_t> rng::sample_distinct(
    std::uint32_t n, std::uint32_t k, const std::vector<std::uint32_t>& exclude) {
  std::vector<std::uint32_t> banned;
  for (std::uint32_t e : exclude)
    if (e < n) banned.push_back(e);
  std::sort(banned.begin(), banned.end());
  banned.erase(std::unique(banned.begin(), banned.end()), banned.end());
  const auto size = n - static_cast<std::uint32_t>(banned.size());
  ANONPATH_EXPECTS(k <= size);
  // Partial Fisher-Yates over the pool of allowed values in ascending
  // order: after i swaps the prefix is a uniform ordered sample without
  // replacement. Pool position p holds the p-th allowed value until a swap
  // moves another value there, so a small sample from a large range skips
  // the pool and keeps only the swapped positions, in a list searched
  // linearly: about k^2 steps against the pool's n.
  if (16 * std::uint64_t{k} * k < n) {
    std::vector<std::uint32_t> out(k);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> moved;  // (pos, value)
    moved.reserve(k);
    const auto slot = [&](std::uint32_t p) {
      return std::find_if(moved.begin(), moved.end(),
                          [p](const auto& m) { return m.first == p; });
    };
    const auto value_at = [&](std::uint32_t p) {
      if (const auto it = slot(p); it != moved.end()) return it->second;
      for (std::uint32_t b : banned) {
        if (b > p) break;
        ++p;
      }
      return p;
    };
    for (std::uint32_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::uint32_t>(next_below(size - i));
      const std::uint32_t displaced = value_at(i);
      out[i] = value_at(j);
      if (const auto it = slot(j); it != moved.end())
        it->second = displaced;
      else
        moved.emplace_back(j, displaced);
    }
    return out;
  }
  std::vector<std::uint32_t> pool;
  pool.reserve(size);
  auto b = banned.begin();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (b != banned.end() && *b == v)
      ++b;
    else
      pool.push_back(v);
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::uint32_t>(next_below(size - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

rng rng::split() noexcept { return rng(next_u64()); }

rng rng::stream(std::uint64_t seed, std::uint64_t stream_index) noexcept {
  // Two SplitMix64 rounds: the first decorrelates the user seed, the second
  // mixes in the stream index via an odd multiplier so that consecutive
  // indices land in unrelated regions of the seed space.
  std::uint64_t s = seed;
  const std::uint64_t base = splitmix64(s);
  std::uint64_t t =
      base ^ (stream_index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return rng(splitmix64(t));
}

}  // namespace anonpath::stats
