#include "src/anonymity/entropy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath {
namespace {

TEST(Entropy, UniformIsLogN) {
  const std::vector<double> p(8, 0.125);
  EXPECT_NEAR(entropy_bits(p), 3.0, 1e-12);
}

TEST(Entropy, PointMassIsZero) {
  const std::vector<double> p{0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(entropy_bits(p), 0.0);
}

TEST(Entropy, NormalizesUnnormalizedInput) {
  const std::vector<double> w{2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(entropy_bits(w), 2.0, 1e-12);
}

TEST(Entropy, BinaryEntropyKnownValue) {
  const std::vector<double> p{0.25, 0.75};
  const double expected = -(0.25 * std::log2(0.25) + 0.75 * std::log2(0.75));
  EXPECT_NEAR(entropy_bits(p), expected, 1e-12);
}

TEST(Entropy, ZeroVectorYieldsZero) {
  const std::vector<double> p{0.0, 0.0};
  EXPECT_DOUBLE_EQ(entropy_bits(p), 0.0);
}

TEST(Entropy, NegativeEntryRejected) {
  const std::vector<double> p{0.5, -0.5};
  EXPECT_THROW((void)entropy_bits(p), contract_violation);
}

TEST(Entropy, NanOrNegativeAmongZerosRejected) {
  // The dense pass skips zeros; every nonzero entry is still checked.
  for (const double bad : {-0.25, std::nan("")}) {
    std::vector<double> p(200, 0.0);
    p[3] = 0.5;
    p[150] = bad;
    EXPECT_THROW((void)entropy_bits(p), contract_violation) << bad;
    EXPECT_THROW((void)summarize_entropy(p), contract_violation) << bad;
    p[3] = 0.0;  // the bad entry alone among zeros
    EXPECT_THROW((void)entropy_bits(p), contract_violation) << bad;
  }
  // Negative zero is zero, not a negative entry.
  EXPECT_EQ(entropy_bits(std::vector<double>{-0.0, 1.0, 0.0}), 0.0);
}

TEST(Entropy, MaximizedByUniform) {
  // Any perturbation away from uniform strictly lowers entropy.
  const std::vector<double> uniform(10, 0.1);
  std::vector<double> skewed = uniform;
  skewed[0] += 0.05;
  skewed[1] -= 0.05;
  EXPECT_GT(entropy_bits(uniform), entropy_bits(skewed));
}

TEST(TwoLevelEntropy, UniformOverOthersWhenSpecialZero) {
  EXPECT_NEAR(two_level_entropy_bits(0.0, 1.0, 16), 4.0, 1e-12);
}

TEST(TwoLevelEntropy, ZeroWhenOthersAbsent) {
  EXPECT_DOUBLE_EQ(two_level_entropy_bits(1.0, 0.0, 5), 0.0);
  EXPECT_DOUBLE_EQ(two_level_entropy_bits(1.0, 1.0, 0), 0.0);
}

TEST(TwoLevelEntropy, MatchesDirectComputation) {
  // One candidate at weight 3, four at weight 2 => p = {3/11, 2/11 x4}.
  std::vector<double> p{3.0, 2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(two_level_entropy_bits(3.0, 2.0, 4), entropy_bits(p), 1e-12);
}

TEST(TwoLevelEntropy, ScaleInvariant) {
  const double a = two_level_entropy_bits(3.0, 2.0, 7);
  const double b = two_level_entropy_bits(30.0, 20.0, 7);
  EXPECT_NEAR(a, b, 1e-12);
}

TEST(TwoLevelEntropy, EqualWeightsGiveLogK1) {
  EXPECT_NEAR(two_level_entropy_bits(1.0, 1.0, 7), 3.0, 1e-12);
}

TEST(TwoLevelEntropy, RejectsNegativeWeights) {
  EXPECT_THROW((void)two_level_entropy_bits(-1.0, 1.0, 3), contract_violation);
  EXPECT_THROW((void)two_level_entropy_bits(1.0, -1.0, 3), contract_violation);
}

TEST(Entropy, WordSkipMatchesScalarReference) {
  // The dense pass skips 8-entry words of +/-0.0 whole; everything it does
  // not skip must reach the same bits and argmax as the per-entry loop, for
  // every tail length and for zeros, -0.0 and subnormals mixed with mass.
  const double subnormal = std::numeric_limits<double>::denorm_min();
  stats::rng gen(77);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 131; ++n) lengths.push_back(n);
  lengths.push_back(100000);
  for (const std::size_t n : lengths) {
    for (const double density : {0.0, 0.02, 0.3, 1.0}) {
      std::vector<double> p(n, 0.0);
      for (double& x : p) {
        if (gen.next_double() >= density) {
          x = gen.next_below(2) == 0 ? 0.0 : -0.0;
          continue;
        }
        switch (gen.next_below(3)) {
          case 0: x = gen.next_double(); break;
          case 1: x = subnormal * static_cast<double>(1 + gen.next_below(9));
                  break;
          default: x = -0.0;
        }
      }
      const entropy_summary got = summarize_entropy(p);
      const entropy_summary want = pre_change::summarize_entropy(p);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bits),
                std::bit_cast<std::uint64_t>(want.bits))
          << "n=" << n << " density=" << density;
      EXPECT_EQ(got.argmax, want.argmax)
          << "n=" << n << " density=" << density;
    }
  }
  // A NaN or negative entry fails the precondition wherever it sits: in an
  // otherwise-zero word, next to -0.0, or in the tail.
  for (std::size_t n = 1; n <= 131; ++n) {
    for (std::size_t at = 0; at < n; ++at) {
      for (const double bad :
           {std::numeric_limits<double>::quiet_NaN(), -subnormal, -0.5}) {
        std::vector<double> p(n, -0.0);
        p[at] = bad;
        EXPECT_THROW((void)summarize_entropy(p), contract_violation)
            << "n=" << n << " at=" << at << " value=" << bad;
        EXPECT_THROW((void)pre_change::summarize_entropy(p),
                     contract_violation);
      }
    }
  }
}

TEST(SafeLog2, GuardsNonPositive) {
  EXPECT_DOUBLE_EQ(safe_log2(0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_log2(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_log2(8.0), 3.0);
}

}  // namespace
}  // namespace anonpath
