// Fuzz/property layer for the adversary view's assembly paths: seeded
// random event logs with out-of-order capture times, duplicate relay
// reports and incomplete messages must never crash, corrupt state, or
// produce unscreened unexplainable posteriors; the partial-coverage view
// must obey its core structural invariant — observed hop reporters form
// exactly the order-preserving compromised subsequence of the ground-truth
// route; and the timing correlator's bucketed linker must link exactly as
// the whole-log scan it replaced (tests/pre_change_reference.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/anonymity/observation.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/rng.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath::sim {
namespace {

std::vector<bool> random_flags(std::uint32_t n, double f, stats::rng& gen) {
  std::vector<bool> flags(n, false);
  for (std::uint32_t i = 0; i < n; ++i) flags[i] = gen.next_bernoulli(f);
  return flags;
}

using event = adversary_event;
constexpr auto origin = adversary_event::kind::origin;
constexpr auto relay = adversary_event::kind::relay;
constexpr auto receipt = adversary_event::kind::receipt;

adversary_config partial_config(bool receiver_compromised) {
  adversary_config cfg;
  cfg.kind = adversary_kind::partial_coverage;
  cfg.receiver_compromised = receiver_compromised;
  return cfg;
}

adversary_config timing_config() {
  adversary_config cfg;
  cfg.kind = adversary_kind::timing_correlator;
  return cfg;
}

bool observed(const adversary_view& view, std::uint64_t msg) {
  const auto ids = view.observed_messages();
  return std::find(ids.begin(), ids.end(), msg) != ids.end();
}

/// Logs every report the threat model grants for `r` under `flags`, at the
/// given per-position capture times (times.size() >= r.length()), plus the
/// receiver report when `deliver`.
void log_route(std::vector<event>& log, std::uint64_t msg, const route& r,
               const std::vector<bool>& flags,
               const std::vector<double>& times,
               const std::vector<std::size_t>& order, bool deliver) {
  if (flags[r.sender]) log.push_back({origin, msg, 0.0, r.sender, 0, 0});
  const auto l = r.length();
  for (const std::size_t i : order) {
    if (i >= l) continue;
    const node_id here = r.hops[i];
    if (!flags[here]) continue;
    const node_id pred = i == 0 ? r.sender : r.hops[i - 1];
    const node_id succ = i + 1 == l ? receiver_node : r.hops[i + 1];
    log.push_back({relay, msg, times[i], here, pred, succ});
  }
  if (deliver)
    log.push_back({receipt, msg, times.empty() ? 1.0 : times.back() + 1.0, 0,
                   l == 0 ? r.sender : r.hops[l - 1], 0});
}

/// Pins the view's timing linker to the whole-log scan it replaced.
void expect_links_like_reference(const std::vector<bool>& flags,
                                 const latency_params& lat,
                                 const std::vector<event>& log) {
  const adversary_view view(timing_config(), flags, lat, log);
  const auto reference = pre_change::timing_link(flags, lat, log);
  std::vector<std::uint64_t> linked;
  for (std::uint64_t id = 0; id < reference.size(); ++id) {
    if (!reference[id]) continue;
    linked.push_back(id);
    EXPECT_EQ(view.assemble(id), *reference[id]) << "message " << id;
  }
  EXPECT_EQ(view.observed_messages(), linked);
}

TEST(AdversaryFuzz, OutOfOrderCaptureTimesStillAssembleInTimeOrder) {
  // Reports filed in shuffled order with monotone per-position times must
  // assemble to exactly observe(route, flags) — the historical contract.
  stats::rng gen(101);
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(gen.next_below(14));
    const auto flags = random_flags(n, 0.4, gen);
    const auto lengths = path_length_distribution::uniform(
        0, std::min<path_length>(8, n - 1));
    const route r = sample_route(n, lengths, path_model::simple, gen);

    std::vector<double> times(r.length());
    for (std::size_t i = 0; i < times.size(); ++i)
      times[i] = 0.010 * static_cast<double>(i + 1);
    std::vector<std::size_t> order(r.length());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Deterministic shuffle via partial Fisher-Yates.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[gen.next_below(i)]);

    std::vector<event> log;
    log_route(log, 1, r, flags, times, order, true);
    const adversary_view view(adversary_config{}, flags, {}, log);
    ASSERT_TRUE(observed(view, 1));
    EXPECT_EQ(view.assemble(1), observe(r, flags)) << "iteration " << iter;
  }
}

TEST(AdversaryFuzz, DuplicateAndIncompleteStreamsNeverCrash) {
  // Arbitrary within-contract event logs: duplicates of the same report,
  // messages that never complete, ties in capture time. assemble()
  // must throw for incomplete ids, return for complete ones, and the
  // fragment assembler must either produce fragments or reject with
  // invalid_argument — nothing else.
  stats::rng gen(202);
  for (int iter = 0; iter < 400; ++iter) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(gen.next_below(10));
    const auto flags = random_flags(n, 0.5, gen);
    std::vector<node_id> compromised;
    for (node_id i = 0; i < n; ++i)
      if (flags[i]) compromised.push_back(i);
    if (compromised.empty()) continue;

    std::vector<event> log;
    const std::uint32_t calls = 1 + static_cast<std::uint32_t>(gen.next_below(12));
    for (std::uint32_t k = 0; k < calls; ++k) {
      const std::uint64_t msg = gen.next_below(3);
      const auto roll = gen.next_below(10);
      const node_id reporter =
          compromised[gen.next_below(compromised.size())];
      const auto any_node = [&] {
        // Sometimes out-of-range garbage or the receiver sentinel.
        const auto x = gen.next_below(n + 2);
        return x == n ? receiver_node : static_cast<node_id>(x);
      };
      // A braced list draws its entries left to right.
      if (roll < 6) {
        log.push_back(
            {relay, msg, gen.next_double(), reporter, any_node(), any_node()});
        if (roll == 0)  // exact duplicate, same capture time
          log.push_back({relay, msg, gen.next_double(), reporter, any_node(),
                         any_node()});
      } else if (roll < 8) {
        log.push_back({origin, msg, 0.0, reporter, 0, 0});
      } else {
        log.push_back({receipt, msg, gen.next_double(), 0, any_node(), 0});
      }
    }

    const adversary_view view(adversary_config{}, flags, {}, log);
    for (std::uint64_t msg = 0; msg < 3; ++msg) {
      if (!observed(view, msg)) {
        EXPECT_THROW((void)view.assemble(msg), std::out_of_range);
        continue;
      }
      const observation& obs = view.assemble(msg);
      // Time-sorted, and every capture survives (duplicates included).
      try {
        const auto fragments = assemble_fragments(obs, flags);
        // Chained fragments keep every report's reporter.
        std::size_t reporters = 0;
        for (const auto& f : fragments) {
          for (node_id x : f.nodes)
            if (x != receiver_node && x < n && flags[x]) ++reporters;
        }
        if (!obs.reports.empty()) EXPECT_GE(reporters, 1u);
      } catch (const std::invalid_argument&) {
        // Inconsistent streams are rejected, not mis-assembled.
      }
    }
  }
}

TEST(AdversaryFuzz, PartialCoverageObservedHopsAreOrderPreservingSubsequence) {
  stats::rng gen(303);
  for (int iter = 0; iter < 400; ++iter) {
    const std::uint32_t n = 8 + static_cast<std::uint32_t>(gen.next_below(20));
    const double f = 0.1 + 0.8 * gen.next_double();
    const auto flags = random_flags(n, f, gen);
    const bool receiver = gen.next_bernoulli(0.5);
    const auto lengths = path_length_distribution::uniform(
        0, std::min<path_length>(9, n - 1));
    const route r = sample_route(n, lengths, path_model::simple, gen);

    std::vector<double> times(r.length());
    for (std::size_t i = 0; i < times.size(); ++i)
      times[i] = 0.010 * static_cast<double>(i + 1);
    std::vector<std::size_t> order(r.length());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<event> log;
    log_route(log, 1, r, flags, times, order, true);
    const adversary_view view(partial_config(receiver), flags, {}, log);

    // The invariant's reference: the compromised subsequence of the route.
    std::vector<node_id> expected;
    for (node_id hop : r.hops)
      if (flags[hop]) expected.push_back(hop);

    const bool observable =
        receiver || flags[r.sender] || !expected.empty();
    ASSERT_EQ(observed(view, 1), observable);
    if (!observable) continue;

    const observation& obs = view.assemble(1);
    std::vector<node_id> reported;
    for (const auto& rep : obs.reports) reported.push_back(rep.reporter);
    EXPECT_EQ(reported, expected)
        << "iteration " << iter
        << ": reports must be the route's compromised subsequence, in order";
    EXPECT_EQ(obs.receiver_observed, receiver);
    if (receiver) {
      EXPECT_EQ(obs.receiver_predecessor,
                r.length() == 0 ? r.sender : r.hops[r.length() - 1]);
    }

    // And the posterior engine accepts it: the true sender always keeps
    // positive likelihood under the drawn coalition.
    std::vector<node_id> ids;
    for (node_id i = 0; i < n; ++i)
      if (flags[i]) ids.push_back(i);
    const posterior_engine engine(
        {n, static_cast<std::uint32_t>(ids.size())}, ids, lengths);
    EXPECT_TRUE(engine.explainable(obs));
    EXPECT_TRUE(std::isfinite(engine.log_likelihood(obs, r.sender)))
        << "iteration " << iter;
    const auto post = engine.sender_posterior(obs);
    EXPECT_GT(post[r.sender], 0.0);
    // Fast path and reference agree on the new observation shapes too.
    const auto ref = engine.sender_posterior_reference(obs);
    for (std::size_t i = 0; i < post.size(); ++i)
      EXPECT_NEAR(post[i], ref[i], 1e-12);
  }
}

TEST(AdversaryFuzz, TimingCorrelatorToleratesArbitraryStreams) {
  // Random capture soups: linking must stay deterministic, never crash,
  // link exactly as the reference linker, and every produced observation
  // must be screenable by explainable().
  stats::rng gen(404);
  for (int iter = 0; iter < 150; ++iter) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(gen.next_below(10));
    const auto flags = random_flags(n, 0.6, gen);
    std::vector<node_id> compromised;
    for (node_id i = 0; i < n; ++i)
      if (flags[i]) compromised.push_back(i);
    if (compromised.empty()) continue;

    const latency_params lat{0.010, 0.004, 0.002};
    std::vector<event> log;
    const std::uint32_t captures =
        static_cast<std::uint32_t>(gen.next_below(20));
    for (std::uint32_t k = 0; k < captures; ++k) {
      const node_id reporter =
          compromised[gen.next_below(compromised.size())];
      const auto succ_roll = gen.next_below(n + 1);
      log.push_back({relay, gen.next_below(5), gen.next_double() * 0.2,
                     reporter, static_cast<node_id>(gen.next_below(n)),
                     succ_roll == n ? receiver_node
                                    : static_cast<node_id>(succ_roll)});
    }
    const std::uint32_t receipts =
        1 + static_cast<std::uint32_t>(gen.next_below(5));
    for (std::uint32_t k = 0; k < receipts; ++k)
      log.push_back({receipt, k, gen.next_double() * 0.25, 0,
                     static_cast<node_id>(gen.next_below(n)), 0});

    const adversary_view view(timing_config(), flags, lat, log);
    const auto ids = view.observed_messages();
    EXPECT_EQ(ids.size(), receipts);
    expect_links_like_reference(flags, lat, log);
    const posterior_engine engine(
        {n, static_cast<std::uint32_t>(compromised.size())}, compromised,
        path_length_distribution::uniform(0, std::min<path_length>(6, n - 1)));
    for (const std::uint64_t msg : ids) {
      const observation& obs = view.assemble(msg);
      EXPECT_TRUE(obs.gapped);
      if (engine.explainable(obs)) {
        const auto post = engine.sender_posterior(obs);
        double total = 0.0;
        for (double p : post) total += p;
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
    }
  }
}

TEST(AdversaryFuzz, TimingCorrelatorLinksSimulatedRunsLikeReference) {
  // Simulated logs: many interleaved deliveries on few wires, where the
  // tie-break among equal-endpoint captures decides every chain.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim_config cfg;
    cfg.sys = {16, 5};
    cfg.compromised = {1, 4, 7, 10, 13};
    cfg.lengths = path_length_distribution::uniform(1, 6);
    cfg.message_count = 400;
    cfg.arrival_rate = 2000.0;
    cfg.seed = seed;
    cfg.adversary = timing_config();
    const sim_trace trace = capture_trace(cfg);
    std::vector<bool> flags(cfg.sys.node_count, false);
    for (const node_id id : trace.compromised) flags[id] = true;
    expect_links_like_reference(flags, cfg.latency, trace.events);
  }
}

}  // namespace
}  // namespace anonpath::sim
