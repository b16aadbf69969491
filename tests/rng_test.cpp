#include "src/stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/stats/chi_square.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/discrete_sampler.hpp"
#include "src/stats/histogram.hpp"
#include "src/workload/population.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath::stats {
namespace {

TEST(Rng, DeterministicUnderSeed) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  rng g(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = g.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  rng g(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(g.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  rng g(3);
  EXPECT_THROW((void)g.next_below(0), contract_violation);
}

TEST(Rng, NextIntCoversRangeInclusive) {
  rng g(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(g.next_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformityChiSquare) {
  rng g(12345);
  constexpr std::size_t bins = 16;
  int_histogram h(bins);
  for (int i = 0; i < 160000; ++i)
    h.add(static_cast<std::size_t>(g.next_below(bins)));
  std::vector<double> expected(bins, 1.0 / bins);
  const auto r = chi_square_goodness_of_fit(h.counts(), expected);
  EXPECT_GT(r.p_value, 1e-4) << "statistic=" << r.statistic;
}

TEST(Rng, BernoulliFrequency) {
  rng g(99);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i)
    if (g.next_bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SampleDistinctProducesDistinctValuesExcludingBanned) {
  rng g(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = g.sample_distinct(10, 6, {3});
    std::set<std::uint32_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 6u);
    EXPECT_FALSE(uniq.contains(3));
    for (auto v : sample) EXPECT_LT(v, 10u);
  }
}

TEST(Rng, SampleDistinctFullPool) {
  rng g(5);
  const auto sample = g.sample_distinct(5, 4, {2});
  std::set<std::uint32_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq, (std::set<std::uint32_t>{0, 1, 3, 4}));
}

TEST(Rng, SampleDistinctMatchesThePoolReference) {
  // Small samples from large ranges skip building the pool; both paths
  // must draw exactly what the full-pool shuffle draws, from the same rng
  // state, and leave the rng in the same state.
  const std::vector<std::vector<std::uint32_t>> excludes{
      {}, {0}, {3}, {7, 2, 7, 40000000}, {1, 0, 2, 5, 9, 4}};
  for (const std::uint32_t n : {1u, 2u, 5u, 10u, 17u, 100u, 1000u, 1000000u}) {
    for (const std::vector<std::uint32_t>& exclude : excludes) {
      std::set<std::uint32_t> banned;
      for (std::uint32_t e : exclude)
        if (e < n) banned.insert(e);
      // 16 * 7^2 < 1000 <= 16 * 8^2, 16 * 249^2 < 1e6 <= 16 * 250^2: both
      // sides of the switch.
      for (const std::uint32_t k : {0u, 1u, 2u, 3u, 7u, 8u, 249u, 250u}) {
        if (k > n - banned.size()) continue;
        rng a(n * 31 + k), b(n * 31 + k);
        for (int trial = 0; trial < (n < 1000000 ? 20 : 2); ++trial)
          ASSERT_EQ(a.sample_distinct(n, k, exclude),
                    pre_change::sample_distinct(b, n, k, exclude))
              << "n=" << n << " k=" << k << " trial=" << trial;
        EXPECT_EQ(a.next_u64(), b.next_u64());
      }
    }
  }
  // A swap position drawn twice and read again is rare on the sparse path
  // (about k^3 / n^2 per sample), so take many samples at its largest k.
  rng a(4242), b(4242);
  for (int trial = 0; trial < 100000; ++trial)
    ASSERT_EQ(a.sample_distinct(1000, 7, {500}),
              pre_change::sample_distinct(b, 1000, 7, {500}))
        << "trial=" << trial;
}

TEST(Rng, SampleDistinctTooManyThrows) {
  rng g(5);
  EXPECT_THROW((void)g.sample_distinct(5, 5, {2}), contract_violation);
}

TEST(Rng, SampleDistinctIsUniformOverArrangements) {
  // All 6 ordered pairs from {0,1,2} \ {} with k=2 should be equally likely.
  rng g(777);
  int_histogram h(9);
  constexpr int n = 90000;
  for (int i = 0; i < n; ++i) {
    const auto s = g.sample_distinct(3, 2, {});
    h.add(s[0] * 3 + s[1]);
  }
  std::vector<double> expected(9, 0.0);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b)
      if (a != b) expected[a * 3 + b] = 1.0 / 6.0;
  const auto r = chi_square_goodness_of_fit(h.counts(), expected);
  EXPECT_GT(r.p_value, 1e-4);
}

TEST(Rng, SplitProducesIndependentStream) {
  rng a(42);
  rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(DiscreteSampler, MatchesWeights) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  discrete_sampler s(w);
  rng g(2024);
  int_histogram h(4);
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) h.add(s.sample(g));
  std::vector<double> expected{0.1, 0.2, 0.3, 0.4};
  const auto r = chi_square_goodness_of_fit(h.counts(), expected);
  EXPECT_GT(r.p_value, 1e-4);
}

TEST(DiscreteSampler, HandlesZeroWeightCategories) {
  const std::vector<double> w{0.0, 1.0, 0.0, 1.0};
  discrete_sampler s(w);
  rng g(6);
  for (int i = 0; i < 10000; ++i) {
    const auto k = s.sample(g);
    EXPECT_TRUE(k == 1 || k == 3);
  }
}

TEST(DiscreteSampler, InPlaceVoseMatchesTwoStackReference) {
  // The alias table built in place over the moved-in weights must be the
  // two-stack table column for column: the same rng stream then draws the
  // same indices.
  rng weights_gen(99);
  std::vector<double> random(1000);
  for (double& w : random)
    w = weights_gen.next_below(4) == 0 ? 0.0 : weights_gen.next_double();
  const std::vector<std::vector<double>> cases{
      random,
      {2.5},
      {0.25, 0.75},
      {0.0, 3.0},
      std::vector<double>(777, 1.0),
      workload::popularity_pmf({workload::popularity_kind::zipf, 1.0},
                               100000)};
  for (const std::vector<double>& w : cases) {
    const discrete_sampler in_place(w);
    const pre_change::two_stack_vose reference(w);
    rng a(5), b(5);
    std::size_t mismatches = 0;
    for (int i = 0; i < 100000; ++i)
      mismatches += in_place.sample(a) != reference.sample(b);
    EXPECT_EQ(mismatches, 0u) << "n=" << w.size();
  }
}

TEST(DiscreteSampler, RejectsAllZero) {
  const std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(discrete_sampler{w}, contract_violation);
}

TEST(DiscreteSampler, RejectsNegative) {
  const std::vector<double> w{0.5, -0.1};
  EXPECT_THROW(discrete_sampler{w}, contract_violation);
}

}  // namespace
}  // namespace anonpath::stats
