// Retransmission-with-backoff: the sim::retry_policy recovery path and its
// adversary-side accounting. Pins (a) the inertness of a policy that never
// fires, (b) determinism, (c) reliability monotone in the retry budget,
// (d) retransmissions being genuinely fused into per-message posteriors,
// and (e) the trace pipeline carrying attempts bit-exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/error.hpp"

namespace anonpath {
namespace {

sim::sim_config lossy_config(std::uint64_t seed, double drop,
                             std::uint32_t retries) {
  sim::sim_config cfg;
  cfg.sys = {24, 2};
  cfg.compromised = spread_compromised(24, 2);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 500;
  cfg.arrival_rate = 100.0;
  cfg.seed = seed;
  cfg.faults.drop_probability = drop;
  cfg.retry.max_retries = retries;
  cfg.retry.timeout = 0.3;
  return cfg;
}

TEST(Retry, PolicyThatNeverFiresIsInert) {
  // Lossless fabric, timeout far beyond every delivery: the timers all find
  // their message delivered, no attempt is ever injected, and the report
  // matches the retry-free run field for field (the retry rng stream is
  // split unconditionally, so enabling the policy shifts nothing).
  sim::sim_config off = lossy_config(5, 0.0, 0);
  sim::sim_config armed = lossy_config(5, 0.0, 4);
  armed.retry.timeout = 1e6;
  armed.retry.max_timeout = 1e6;

  const auto a = sim::run_simulation(off);
  const auto b = sim::run_simulation(armed);
  EXPECT_EQ(b.retransmissions, 0u);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.end_to_end_latency.mean(), b.end_to_end_latency.mean());
  EXPECT_EQ(a.hop_histogram, b.hop_histogram);
  EXPECT_EQ(a.empirical_entropy_bits, b.empirical_entropy_bits);
  EXPECT_EQ(a.identified_fraction, b.identified_fraction);
  EXPECT_EQ(a.top1_accuracy, b.top1_accuracy);
}

TEST(Retry, DeterministicUnderSeed) {
  const sim::sim_config cfg = lossy_config(9, 0.25, 3);
  const auto a = sim::run_simulation(cfg);
  const auto b = sim::run_simulation(cfg);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.end_to_end_latency.mean(), b.end_to_end_latency.mean());
  EXPECT_EQ(a.empirical_entropy_bits, b.empirical_entropy_bits);
  EXPECT_EQ(a.identified_fraction, b.identified_fraction);
}

TEST(Retry, DeliveryMonotoneInBudget) {
  // Mean delivered fraction over several seeds must climb with the retry
  // budget — that is the entire point of the policy. Averaging smooths the
  // per-seed rng divergence between budgets.
  double prev = -1.0;
  for (std::uint32_t budget : {0u, 1u, 2u, 4u}) {
    double delivered = 0.0, submitted = 0.0;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      const auto r = sim::run_simulation(lossy_config(seed, 0.2, budget));
      delivered += static_cast<double>(r.delivered);
      submitted += static_cast<double>(r.submitted);
    }
    const double fraction = delivered / submitted;
    EXPECT_GT(fraction, prev) << "budget " << budget;
    prev = fraction;
  }
  EXPECT_GT(prev, 0.85);  // 4 retries at drop 0.2 recovers most messages
}

TEST(Retry, RetransmissionsGrowWithLoss) {
  const auto mild = sim::run_simulation(lossy_config(3, 0.1, 3));
  const auto harsh = sim::run_simulation(lossy_config(3, 0.45, 3));
  EXPECT_GT(mild.retransmissions, 0u);
  EXPECT_GT(harsh.retransmissions, mild.retransmissions);
}

TEST(Retry, FusionSharpensThePosteriorOnAverage) {
  // The anonymity cost, measured the way an adversary experiences it:
  // uncertainty across ALL messages, where an unobserved message costs the
  // prior log2(N - C) bits. More attempts => more observations fused =>
  // the all-message entropy must not grow.
  const auto all_message_entropy = [](std::uint32_t budget) {
    double bits = 0.0;
    std::uint64_t messages = 0;
    for (std::uint64_t seed : {11u, 12u, 13u}) {
      sim::sim_config cfg = lossy_config(seed, 0.3, budget);
      cfg.collect_posteriors = true;
      const auto r = sim::run_simulation(cfg);
      const double prior = std::log2(
          static_cast<double>(cfg.sys.node_count - cfg.sys.compromised_count));
      double scored_bits = 0.0;
      for (const auto& post : r.posteriors)
        for (double p : post)
          if (p > 0.0) scored_bits -= p * std::log2(p);
      bits += scored_bits +
              prior * static_cast<double>(cfg.message_count -
                                          r.posteriors.size());
      messages += cfg.message_count;
    }
    return bits / static_cast<double>(messages);
  };
  const double h0 = all_message_entropy(0);
  const double h2 = all_message_entropy(2);
  const double h4 = all_message_entropy(4);
  EXPECT_LE(h2, h0);
  EXPECT_LE(h4, h2);
  EXPECT_LT(h4, h0);  // and strictly better overall
}

TEST(Retry, TraceRoundTripCarriesAttempts) {
  const sim::sim_config cfg = lossy_config(17, 0.3, 2);
  const sim::sim_trace trace = sim::capture_trace(cfg);
  EXPECT_FALSE(trace.attempts.empty());
  for (const auto& [attempt, original] : trace.attempts) {
    EXPECT_GT(attempt, cfg.message_count);
    EXPECT_GE(original, 1u);
    EXPECT_LE(original, cfg.message_count);
  }

  std::ostringstream first;
  sim::write_trace(trace, first);
  std::istringstream is(first.str());
  const sim::sim_trace parsed = sim::read_trace(is);
  EXPECT_EQ(parsed.attempts, trace.attempts);
  EXPECT_EQ(parsed.config.retry, cfg.retry);
  EXPECT_EQ(parsed.config.faults, cfg.faults);
  std::ostringstream second;
  sim::write_trace(parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Retry, TraceRefusesAttemptIdsPastTheRetryBudget) {
  // A run issues attempt ids up to message_count x (max_retries + 1); the
  // reader accepts exactly that range, so a hostile id cannot size the
  // model's id-indexed state.
  const sim::sim_config cfg = lossy_config(17, 0.3, 2);
  std::ostringstream os;
  sim::write_trace(sim::capture_trace(cfg), os);
  const std::string text = os.str();
  const std::size_t line = text.rfind("\nA ") + 3;
  const std::size_t id_end = text.find(' ', line);
  const auto with_last_id = [&](std::uint64_t id) {
    return text.substr(0, line) + std::to_string(id) + text.substr(id_end);
  };
  const std::uint64_t budget =
      std::uint64_t{cfg.message_count} * (cfg.retry.max_retries + 1);
  std::istringstream at_budget(with_last_id(budget));
  EXPECT_NO_THROW((void)sim::read_trace(at_budget));
  std::istringstream past_budget(with_last_id(budget + 1));
  try {
    (void)sim::read_trace(past_budget);
    ADD_FAILURE() << "attempt id past the retry budget was accepted";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
  }
}

TEST(Retry, ReplayMatchesInlineRun) {
  const sim::sim_config cfg = lossy_config(23, 0.35, 3);
  const auto inline_run = sim::run_simulation(cfg);
  const auto replayed = sim::replay_trace(sim::capture_trace(cfg));
  EXPECT_EQ(inline_run.retransmissions, replayed.retransmissions);
  EXPECT_EQ(inline_run.delivered, replayed.delivered);
  EXPECT_EQ(inline_run.empirical_entropy_bits,
            replayed.empirical_entropy_bits);
  EXPECT_EQ(inline_run.identified_fraction, replayed.identified_fraction);
  EXPECT_EQ(inline_run.top1_accuracy, replayed.top1_accuracy);
}

}  // namespace
}  // namespace anonpath
