// Determinism and correctness of the batched Monte-Carlo estimation engine:
// thread-count invariance (the mc_config contract), agreement with
// per-sample scoring, the allocation-free route sampler's distribution,
// and a fuzz pass pitting the memoized posterior fast path against the
// uncached reference.

#include "src/anonymity/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/stats/rng.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath {
namespace {

std::vector<bool> flags(std::uint32_t n, const std::vector<node_id>& set) {
  std::vector<bool> f(n, false);
  for (node_id c : set) f[c] = true;
  return f;
}

TEST(McParallel, BitIdenticalAcrossThreadCounts) {
  // The headline guarantee: for a fixed (seed, samples, shards), every
  // thread count produces the same bits.
  const system_params sys{60, 4};
  const std::vector<node_id> comp{3, 17, 33, 49};
  const auto d = path_length_distribution::uniform(1, 12);
  mc_config cfg;
  cfg.shards = 16;
  cfg.threads = 1;
  const auto base = estimate_anonymity_degree(sys, comp, d, 6000, 77, cfg);
  for (unsigned threads : {2u, 3u, 8u}) {
    cfg.threads = threads;
    const auto est = estimate_anonymity_degree(sys, comp, d, 6000, 77, cfg);
    EXPECT_EQ(base.degree, est.degree) << threads << " threads";
    EXPECT_EQ(base.std_error, est.std_error) << threads << " threads";
    EXPECT_EQ(base.distinct_observations, est.distinct_observations)
        << threads << " threads";
  }
}

TEST(McParallel, DedupMatchesDirectScoring) {
  // Observation classes reorder the accumulation (weighted, class order)
  // but score the same sampled routes as scoring every sample on its own
  // (tests/pre_change_reference.hpp); the estimates may differ only in
  // rounding.
  const system_params sys{50, 3};
  const std::vector<node_id> comp{2, 19, 41};
  const auto d = path_length_distribution::uniform(1, 10);
  const auto a = estimate_anonymity_degree(sys, comp, d, 8000, 13, mc_config{});
  const auto b = pre_change::mc_per_sample(sys, comp, d, 8000, 13);
  EXPECT_NEAR(a.degree, b.degree, 1e-9);
  EXPECT_NEAR(a.std_error, b.std_error, 1e-9);
  EXPECT_LT(a.distinct_observations, b.distinct_observations);
}

TEST(McParallel, ShardCountChangesStreamButNotDistribution) {
  // Different shard counts draw different routes, so estimates differ — but
  // both must straddle the analytic C=1 value.
  const system_params sys{50, 1};
  const auto d = path_length_distribution::uniform(0, 20);
  const double exact = anonymity_degree(sys, d);
  for (std::uint64_t shards : {1ull, 4ull, 64ull}) {
    mc_config cfg;
    cfg.shards = shards;
    const auto est = estimate_anonymity_degree(sys, {7}, d, 20000, 4242, cfg);
    EXPECT_NEAR(est.degree, exact, 5.0 * est.std_error + 1e-6)
        << shards << " shards";
  }
}

TEST(McParallel, RngStreamsAreDecoupled) {
  // stream(seed, i) must not depend on any other stream's consumption.
  stats::rng a = stats::rng::stream(123, 5);
  stats::rng b = stats::rng::stream(123, 6);
  (void)b.next_u64();
  stats::rng a2 = stats::rng::stream(123, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), a2.next_u64());
  // Distinct indices give distinct streams.
  stats::rng c = stats::rng::stream(123, 7);
  stats::rng d = stats::rng::stream(123, 8);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (c.next_u64() != d.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(McParallel, RouteSamplerDrawsValidSimpleRoutes) {
  const std::uint32_t n = 30;
  const auto d = path_length_distribution::uniform(0, 12);
  route_sampler sampler(n, d, path_model::simple);
  stats::rng gen(3);
  double mean_len = 0.0;
  const int trials = 20000;
  std::vector<int> sender_counts(n, 0);
  for (int i = 0; i < trials; ++i) {
    const route& r = sampler.next(gen);
    ASSERT_LT(r.sender, n);
    ++sender_counts[r.sender];
    ASSERT_LE(r.length(), d.max_length());
    mean_len += static_cast<double>(r.length());
    // Simple-path invariant: sender and hops all distinct.
    std::vector<bool> seen(n, false);
    seen[r.sender] = true;
    for (node_id x : r.hops) {
      ASSERT_LT(x, n);
      ASSERT_FALSE(seen[x]);
      seen[x] = true;
    }
  }
  mean_len /= trials;
  EXPECT_NEAR(mean_len, d.mean(), 0.1);
  // Sender must be uniform: every node within 5 sigma of trials/n.
  const double expect = static_cast<double>(trials) / n;
  const double sigma = std::sqrt(expect * (1.0 - 1.0 / n));
  for (std::uint32_t v = 0; v < n; ++v)
    EXPECT_NEAR(sender_counts[v], expect, 5.0 * sigma) << "sender " << v;
}

TEST(McParallel, ObserveIntoMatchesObserve) {
  const std::uint32_t n = 25;
  const std::vector<node_id> comp{1, 8, 14, 22};
  const auto f = flags(n, comp);
  const auto d = path_length_distribution::uniform(0, 10);
  route_sampler sampler(n, d, path_model::simple);
  stats::rng gen(11);
  observation reused;
  std::string key;
  for (int i = 0; i < 500; ++i) {
    const route& r = sampler.next(gen);
    const observation fresh = observe(r, f);
    observe_into(r, f, reused);  // reused buffer must fully reset
    EXPECT_EQ(fresh, reused);
    reused.key_into(key);
    EXPECT_EQ(fresh.key(), key);
  }
}

TEST(McParallel, MemoizedPosteriorMatchesReferenceFuzz) {
  // Fuzz the memoized fast path against the uncached per-candidate
  // reference across systems, compromised sets, and length laws. Repeated
  // queries of the same engine exercise warm-cache hits.
  stats::rng gen(2024);
  for (std::uint32_t c_count : {1u, 3u, 6u}) {
    for (const auto& d : {path_length_distribution::uniform(0, 11),
                          path_length_distribution::fixed(4),
                          path_length_distribution::geometric(0.6, 1, 11)}) {
      const system_params sys{18, c_count};
      std::vector<node_id> comp;
      for (std::uint32_t i = 0; i < c_count; ++i)
        comp.push_back(static_cast<node_id>((i * 18) / c_count + 1));
      const posterior_engine engine(sys, comp, d);
      const auto f = flags(18, comp);
      route_sampler sampler(18, d, path_model::simple);
      for (int i = 0; i < 200; ++i) {
        const observation obs = observe(sampler.next(gen), f);
        const auto fast = engine.sender_posterior(obs);
        const auto ref = engine.sender_posterior_reference(obs);
        ASSERT_EQ(fast.size(), ref.size());
        for (std::size_t k = 0; k < fast.size(); ++k)
          ASSERT_NEAR(fast[k], ref[k], 1e-12)
              << "C=" << c_count << " dist=" << d.label()
              << " obs=" << obs.key() << " node=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace anonpath
