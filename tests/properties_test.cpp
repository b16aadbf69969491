// Cross-cutting invariants checked over broad parameter grids — the
// property-test layer on top of the per-module unit tests.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>

#include "src/anonymity/api.hpp"
#include "src/stats/rng.hpp"

namespace anonpath {
namespace {

TEST(ApiUmbrella, PullsInTheWholeCoreSurface) {
  // Compile-and-run smoke over the umbrella header's layers.
  const system_params sys{100, 1};
  const auto d = path_length_distribution::fixed(5);
  EXPECT_GT(anonymity_degree(sys, d), 0.0);
  EXPECT_GT(theorem1_fixed_length(100, 5), 0.0);
  EXPECT_EQ(protocols::survey(99).size(), 8u);
}

TEST(Invariance, CompromisedIdentityIrrelevantExactly) {
  // By clique symmetry the brute-force degree cannot depend on *which*
  // node is compromised — for any C.
  const auto d = path_length_distribution::uniform(0, 3);
  const system_params sys{6, 2};
  const brute_force_analyzer a(sys, {0, 1}, d);
  const brute_force_analyzer b(sys, {3, 5}, d);
  EXPECT_NEAR(a.anonymity_degree(), b.anonymity_degree(), 1e-12);
}

TEST(Monotonicity, AddingACompromisedNodeNeverHelps) {
  // Conditioning on more observations cannot increase expected posterior
  // entropy: H*(D) >= H*(D ∪ {d}), exactly, via brute force.
  const auto d = path_length_distribution::uniform(1, 4);
  const system_params sys1{7, 1};
  const system_params sys2{7, 2};
  const system_params sys3{7, 3};
  const double h1 = brute_force_analyzer(sys1, {2}, d).anonymity_degree();
  const double h2 = brute_force_analyzer(sys2, {2, 5}, d).anonymity_degree();
  const double h3 =
      brute_force_analyzer(sys3, {2, 5, 0}, d).anonymity_degree();
  EXPECT_GE(h1, h2 - 1e-12);
  EXPECT_GE(h2, h3 - 1e-12);
  EXPECT_GT(h1, h3 + 1e-6);  // and strictly overall
}

TEST(Monotonicity, DegreeGrowsWithSystemSize) {
  // More nodes, same single compromised node: more candidates to hide
  // among at every event, so H* rises with N for a fixed strategy.
  const auto d = path_length_distribution::fixed(5);
  double prev = 0.0;
  for (std::uint32_t n : {10u, 20u, 50u, 100u, 200u, 400u}) {
    const double h = anonymity_degree(system_params{n, 1}, d);
    EXPECT_GT(h, prev) << "N=" << n;
    prev = h;
  }
}

TEST(MomentSufficiency, RandomDistributionsCollapseToSignature) {
  // Any pmf and its two-point realization share H* exactly — across a
  // randomized zoo of distributions.
  const system_params sys{100, 1};
  stats::rng gen(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> pmf(30, 0.0);
    double total = 0.0;
    for (double& p : pmf) {
      p = gen.next_double();
      total += p;
    }
    for (double& p : pmf) p /= total;
    const auto d = path_length_distribution::from_pmf(pmf);
    const auto sig = signature_of(d);
    const auto realized = realize_signature(sig, 99);
    EXPECT_NEAR(anonymity_degree(sys, d), anonymity_degree(sys, realized),
                1e-9)
        << "trial " << trial;
  }
}

TEST(Continuity, UniformShrinksToFixed) {
  const system_params sys{100, 1};
  for (path_length l : {1u, 5u, 30u, 80u}) {
    EXPECT_NEAR(
        anonymity_degree(sys, path_length_distribution::uniform(l, l)),
        anonymity_degree(sys, path_length_distribution::fixed(l)), 1e-12);
  }
}

TEST(Numerics, LargeSystemLongSupportStaysFinite) {
  // N = 250 with support to 249 stresses the falling-factorial log-space
  // path end to end.
  const system_params sys{250, 1};
  const auto d = path_length_distribution::uniform(0, 249);
  const double h = anonymity_degree(sys, d);
  EXPECT_TRUE(std::isfinite(h));
  EXPECT_GT(h, 7.5);
  EXPECT_LT(h, std::log2(250.0));

  const posterior_engine engine(sys, {17}, d);
  std::vector<bool> flags(250, false);
  flags[17] = true;
  stats::rng gen(3);
  for (int i = 0; i < 50; ++i) {
    const auto r = sample_route(250, d, path_model::simple, gen);
    const auto post = engine.sender_posterior(observe(r, flags));
    const double total = std::accumulate(post.begin(), post.end(), 0.0);
    ASSERT_NEAR(total, 1.0, 1e-9);
    for (double p : post) ASSERT_TRUE(std::isfinite(p));
  }
}

TEST(Consistency, BreakdownMatchesBruteForceEventClassesAtC1) {
  // The five analytic event-class probabilities must match the brute-force
  // event space grouped the same way (N=7, F(4)).
  const system_params sys{7, 1};
  const node_id c = 3;
  const auto d = path_length_distribution::fixed(4);
  const auto bd = anonymity_breakdown(sys, d);
  const brute_force_analyzer bf(sys, {c}, d);

  double p_sender = 0, p_absent = 0, p_last = 0, p_penult = 0, p_mid = 0;
  for (const auto& e : bf.events()) {
    if (e.obs.origin) {
      p_sender += e.probability;
    } else if (e.obs.reports.empty()) {
      p_absent += e.probability;
    } else if (e.obs.reports[0].successor == receiver_node) {
      p_last += e.probability;
    } else if (e.obs.reports[0].successor == e.obs.receiver_predecessor) {
      p_penult += e.probability;
    } else {
      p_mid += e.probability;
    }
  }
  EXPECT_NEAR(p_sender, bd.p_sender_compromised, 1e-12);
  EXPECT_NEAR(p_absent, bd.p_absent, 1e-12);
  EXPECT_NEAR(p_last, bd.p_last, 1e-12);
  EXPECT_NEAR(p_penult, bd.p_penultimate, 1e-12);
  EXPECT_NEAR(p_mid, bd.p_mid, 1e-12);
}

// Parameterized: Monte-Carlo agrees with the analytic engine across a grid
// of (N, strategy) cells, each within its own confidence interval.
struct mc_grid_case {
  std::uint32_t n;
  const char* label;
  path_length_distribution (*make)(std::uint32_t n);
};

// Print a case by its label and size, not as a byte dump of its pointers,
// so the test names recorded by discovery are the same on every build.
void PrintTo(const mc_grid_case& c, std::ostream* os) {
  *os << c.label << " N=" << c.n;
}

class McAnalyticGrid : public ::testing::TestWithParam<mc_grid_case> {};

TEST_P(McAnalyticGrid, Agrees) {
  const auto& param = GetParam();
  const system_params sys{param.n, 1};
  const auto d = param.make(param.n);
  const double exact = anonymity_degree(sys, d);
  const auto est = estimate_anonymity_degree(sys, {param.n / 2}, d, 8000,
                                             777 + param.n);
  EXPECT_NEAR(est.degree, exact, 5.0 * est.std_error + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, McAnalyticGrid,
    ::testing::Values(
        mc_grid_case{25, "fixed3",
                     [](std::uint32_t) {
                       return path_length_distribution::fixed(3);
                     }},
        mc_grid_case{60, "uniform",
                     [](std::uint32_t) {
                       return path_length_distribution::uniform(0, 12);
                     }},
        mc_grid_case{120, "geometric",
                     [](std::uint32_t n) {
                       return path_length_distribution::geometric(0.8, 1,
                                                                  n - 1);
                     }},
        mc_grid_case{40, "longfixed",
                     [](std::uint32_t n) {
                       return path_length_distribution::fixed(n / 2);
                     }}),
    [](const ::testing::TestParamInfo<mc_grid_case>& info) {
      return std::string(info.param.label) + "_N" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace anonpath
