// Differential layer for walk-model scoring. The restricted-path engine's
// DP kernel runs on flat arc arrays; `pre_change::reference_walk_engine`
// (tests/pre_change_reference.hpp) keeps the adjacency-walking kernel it
// replaced (the same posterior code around it), and every observation of
// captured runs must score bit for bit the same under both, masked and
// unmasked. score_run memoizes per-observation
// summaries for every built-in engine (clique, restricted walk, planned
// routes); run_simulation must equal a replay scored by a fresh,
// unmemoized engine on every reported metric.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/anonymity/observation.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/anonymity/sender_inference.hpp"
#include "src/net/topology.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/rng.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath {
namespace {

using pre_change::reference_walk_engine;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

net::topology_config topo_of(net::topology_kind kind) {
  net::topology_config cfg;
  cfg.kind = kind;
  cfg.ring_k = 2;
  cfg.degree = 4;
  cfg.graph_seed = 5;
  cfg.tiers = 3;
  cfg.trust_decay = 0.5;
  return cfg;
}

constexpr net::topology_kind restricted_kinds[] = {
    net::topology_kind::ring, net::topology_kind::tiered,
    net::topology_kind::random_regular, net::topology_kind::trust_weighted};

/// A run on 24 nodes of the given graph under the given adversary.
sim::sim_config walk_config(net::topology_kind kind, bool open_tail) {
  sim::sim_config cfg;
  cfg.sys = {24, 3};
  cfg.compromised = {2, 9, 17};
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 300;
  cfg.seed = 11;
  cfg.topology = topo_of(kind);
  if (open_tail) {
    // Partial coverage with an honest receiver: no terminal report, so
    // unpinned observations end in the open-tail DP.
    cfg.adversary.kind = sim::adversary_kind::partial_coverage;
    cfg.adversary.coverage_fraction = 0.25;
    cfg.adversary.receiver_compromised = false;
  }
  return cfg;
}

TEST(WalkKernel, FlatArcKernelMatchesAdjacencyWalkBitForBit) {
  std::size_t compared = 0;
  std::size_t open_tails = 0;
  std::size_t pruned = 0;
  for (const net::topology_kind kind : restricted_kinds)
    for (const bool open_tail : {false, true}) {
      const sim::sim_config cfg = walk_config(kind, open_tail);
      const sim::sim_trace trace = sim::capture_trace(cfg);
      const net::topology topo =
          net::topology::make(cfg.sys.node_count, cfg.topology);
      const system_params sys{
          cfg.sys.node_count,
          static_cast<std::uint32_t>(trace.compromised.size())};
      // Unmasked, then a seeded mask that prunes about a third of the
      // nodes from the honest interior.
      std::vector<bool> mask(cfg.sys.node_count);
      stats::rng gen(kind == net::topology_kind::ring ? 3 : 4);
      for (std::size_t i = 0; i < mask.size(); ++i)
        mask[i] = gen.next_below(3) != 0;
      for (const std::vector<bool>& support : {std::vector<bool>{}, mask}) {
        const net::topology_posterior_engine engine(
            sys, trace.compromised, cfg.lengths, topo, support);
        const reference_walk_engine reference(sys, trace.compromised,
                                              cfg.lengths, topo, support);
        std::vector<double> got, want;
        const sim::posterior_fn compare = [&](const observation& obs) {
          const bool ok = engine.try_sender_posterior(obs, got);
          const bool ref_ok = reference.try_sender_posterior(obs, want);
          EXPECT_EQ(ok, ref_ok) << obs.key();
          EXPECT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
            EXPECT_TRUE(same_bits(got[i], want[i]))
                << cfg.topology.label() << " obs " << obs.key() << " node "
                << i << ": " << got[i] << " vs " << want[i];
          ++compared;
          if (!obs.receiver_observed) ++open_tails;
          if (!ok) ++pruned;
          return got;
        };
        (void)sim::replay_trace(trace, compare);
      }
    }
  // Every replayed observation went through both kernels: many of them,
  // open tails among them, and some hypotheses the mask rules out.
  EXPECT_GT(compared, 3000u);
  EXPECT_GT(open_tails, 500u);
  EXPECT_GT(pruned, 0u);
}

/// The per-observation scorer run_simulation uses, built fresh for one
/// trace and never memoized: each call runs the engine. The clique gets
/// posterior_engine, a restricted graph the walk engine under the run's
/// lengths, a planned (kpaths) run the walk engine under uniform(1, N-1).
/// An observation the engine cannot explain maps to the empty posterior,
/// which scoring skips. `skipped` counts them.
sim::posterior_fn fresh_scorer(const sim::sim_trace& trace,
                               std::size_t& skipped) {
  const sim::sim_config& cfg = trace.config;
  const std::uint32_t n = cfg.sys.node_count;
  const system_params sys{n,
                          static_cast<std::uint32_t>(trace.compromised.size())};
  std::shared_ptr<const sender_inference> engine;
  // The walk engine borrows its graph; the scorer owns it.
  std::shared_ptr<const net::topology> graph;
  if (cfg.topology.kind == net::topology_kind::complete &&
      !cfg.routing.planned()) {
    engine = std::make_shared<posterior_engine>(sys, trace.compromised,
                                                cfg.lengths);
  } else {
    graph = std::make_shared<const net::topology>(
        net::topology::make(n, cfg.topology));
    engine = std::make_shared<net::topology_posterior_engine>(
        sys, trace.compromised,
        cfg.routing.planned() ? path_length_distribution::uniform(1, n - 1)
                              : cfg.lengths,
        *graph);
  }
  return [graph, engine, &skipped](const observation& obs) {
    std::vector<double> post;
    if (!engine->try_sender_posterior(obs, post)) {
      post.clear();
      ++skipped;
    }
    return post;
  };
}

/// The number of messages the trace's adversary observed: one lookup each
/// in the per-run observation memo.
std::size_t observed_count(const sim::sim_trace& trace) {
  std::vector<bool> flags(trace.config.sys.node_count, false);
  for (const node_id id : trace.compromised) flags[id] = true;
  const sim::adversary_view view(trace.config.adversary, flags,
                                 trace.config.latency, trace.events);
  return view.observed_messages().size();
}

void expect_same_report(const sim::sim_report& got,
                        const sim::sim_report& want, const std::string& what) {
  EXPECT_TRUE(same_bits(got.empirical_entropy_bits, want.empirical_entropy_bits))
      << what << ": " << got.empirical_entropy_bits << " vs "
      << want.empirical_entropy_bits;
  EXPECT_TRUE(
      same_bits(got.empirical_entropy_stderr, want.empirical_entropy_stderr))
      << what;
  EXPECT_TRUE(same_bits(got.identified_fraction, want.identified_fraction))
      << what;
  EXPECT_TRUE(same_bits(got.top1_accuracy, want.top1_accuracy)) << what;
  EXPECT_EQ(got.posteriors, want.posteriors) << what;
  ASSERT_EQ(got.session.has_value(), want.session.has_value()) << what;
  if (!got.session) return;
  const sim::session_report& a = *got.session;
  const sim::session_report& b = *want.session;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.target_messages, b.target_messages) << what;
  EXPECT_TRUE(same_bits(a.entropy_bits, b.entropy_bits)) << what;
  EXPECT_TRUE(same_bits(a.top_mass, b.top_mass)) << what;
  EXPECT_EQ(a.top_receiver, b.top_receiver) << what;
  EXPECT_EQ(a.identified, b.identified) << what;
  EXPECT_EQ(a.correct, b.correct) << what;
  EXPECT_EQ(a.identified_round, b.identified_round) << what;
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << what;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].round, b.trajectory[i].round) << what;
    EXPECT_TRUE(
        same_bits(a.trajectory[i].entropy_bits, b.trajectory[i].entropy_bits))
        << what << " round " << i;
    EXPECT_TRUE(same_bits(a.trajectory[i].top_mass, b.trajectory[i].top_mass))
        << what << " round " << i;
    EXPECT_EQ(a.trajectory[i].top_receiver, b.trajectory[i].top_receiver)
        << what;
    EXPECT_EQ(a.trajectory[i].identified, b.trajectory[i].identified) << what;
  }
}

/// One scoring engine under one adversary: the runs the memo tests sweep.
struct memo_scenario {
  std::string name;
  sim::sim_config cfg;
};

std::vector<memo_scenario> memo_scenarios() {
  std::vector<memo_scenario> out;
  const auto add = [&out](sim::sim_config cfg, bool planned) {
    if (planned) {
      cfg.routing.kind = net::route_select::kpaths;
      cfg.routing.k = 3;
    }
    out.push_back({cfg.topology.label() + (planned ? " kpaths " : " walk ") +
                       cfg.adversary.label(),
                   cfg});
  };
  // Every engine under the full coalition and under partial coverage with
  // an honest receiver (open tails): the clique, restricted walks, and
  // planned (kpaths) routes on the clique and on a restricted graph.
  for (const bool open_tail : {false, true}) {
    add(walk_config(net::topology_kind::complete, open_tail), false);
    for (const net::topology_kind kind : restricted_kinds)
      add(walk_config(kind, open_tail), false);
    add(walk_config(net::topology_kind::complete, open_tail), true);
    add(walk_config(net::topology_kind::random_regular, open_tail), true);
  }
  // The timing correlator produces gapped observations, some of which the
  // clique model cannot explain.
  sim::sim_config timing = walk_config(net::topology_kind::complete, false);
  timing.adversary.kind = sim::adversary_kind::timing_correlator;
  add(timing, false);
  return out;
}

TEST(ObservationMemo, InlineRunEqualsUnmemoizedReplay) {
  struct variant {
    const char* name;
    void (*apply)(sim::sim_config&);
    bool memoized;  // scored through the per-run memo
  };
  const variant variants[] = {
      {"plain", [](sim::sim_config&) {}, true},
      {"retries (fused)",
       [](sim::sim_config& c) {
         c.faults.drop_probability = 0.2;
         c.retry.max_retries = 2;
         c.retry.timeout = 0.3;
       },
       false},
      {"sequential bayes session",
       [](sim::sim_config& c) {
         c.session.rounds = 30;
         c.session.receiver_count = 12;
         c.session.target_sender = 5;
         c.session.partner = 4;
         c.session.attack = attack::attack_kind::sequential_bayes;
       },
       true},
      {"collect_posteriors",
       [](sim::sim_config& c) { c.collect_posteriors = true; }, false},
  };
  std::size_t skipped = 0;
  for (const memo_scenario& scenario : memo_scenarios())
    for (const variant& v : variants) {
      sim::sim_config cfg = scenario.cfg;
      v.apply(cfg);
      const std::string what = scenario.name + " " + v.name;
      const sim::sim_report inline_report = sim::run_simulation(cfg);
      const sim::sim_trace trace = sim::capture_trace(cfg);
      const sim::sim_report replayed =
          sim::replay_trace(trace, fresh_scorer(trace, skipped));
      ASSERT_FALSE(std::isnan(inline_report.empirical_entropy_bits)) << what;
      expect_same_report(inline_report, replayed, what);
      if (cfg.session.enabled()) {
        ASSERT_TRUE(inline_report.session.has_value()) << what;
      }
      // The memo looks up every observed message once; a run this size
      // repeats observations, so it both misses and hits. The paths that
      // need every posterior vector, and a caller-supplied engine, count
      // nothing.
      const std::uint64_t lookups =
          inline_report.obs_memo_hits + inline_report.obs_memo_misses;
      if (v.memoized) {
        EXPECT_EQ(lookups, observed_count(trace)) << what;
        EXPECT_GT(inline_report.obs_memo_hits, 0u) << what;
        EXPECT_GT(inline_report.obs_memo_misses, 0u) << what;
      } else {
        EXPECT_EQ(lookups, 0u) << what;
      }
      EXPECT_EQ(replayed.obs_memo_hits + replayed.obs_memo_misses, 0u)
          << what;
      // Only the clique engine has a layout memo.
      const bool clique = cfg.topology.kind == net::topology_kind::complete &&
                          !cfg.routing.planned();
      EXPECT_EQ(inline_report.memo_hits + inline_report.memo_misses > 0,
                clique)
          << what;
    }
  // Partial coverage leaves a few observations the walk model cannot
  // explain; both paths must skip them alike.
  EXPECT_GT(skipped, 0u);
}

TEST(ObservationMemo, CampaignMetricsCountEveryEngine) {
  sim::campaign_grid grid;
  grid.node_counts = {24};
  grid.compromised_counts = {3};
  grid.lengths = {path_length_distribution::uniform(1, 6)};
  grid.message_count = 200;
  const auto counters = [&](net::topology_kind kind, bool planned) {
    grid.topologies = {topo_of(kind)};
    net::routing_config routing;
    if (planned) {
      routing.kind = net::route_select::kpaths;
      routing.k = 3;
    }
    grid.routings = {routing};
    obs::metrics_registry registry;
    sim::campaign_config cfg;
    cfg.replicas = 2;
    cfg.threads = 2;
    cfg.metrics = &registry;
    (void)sim::run_campaign(grid, cfg);
    return registry.snapshot().counters;
  };
  // The full coalition observes every delivered message, and a fault-free
  // run delivers them all: one memo lookup per message, whatever the
  // engine. Only the clique engine has a layout memo behind it.
  for (const auto& [kind, planned] :
       {std::pair{net::topology_kind::complete, false},
        std::pair{net::topology_kind::random_regular, false},
        std::pair{net::topology_kind::complete, true},
        std::pair{net::topology_kind::random_regular, true}}) {
    auto c = counters(kind, planned);
    const std::string what =
        topo_of(kind).label() + (planned ? " kpaths" : " walk");
    EXPECT_EQ(c["sim.messages_delivered"], 400u) << what;
    EXPECT_EQ(c["posterior.obs_memo_hits"] + c["posterior.obs_memo_misses"],
              c["sim.messages_delivered"])
        << what;
    EXPECT_GT(c["posterior.obs_memo_hits"], 0u) << what;
    EXPECT_GT(c["posterior.obs_memo_misses"], 0u) << what;
    EXPECT_EQ(c["attack.memo_hits"] + c["attack.memo_misses"] > 0,
              kind == net::topology_kind::complete && !planned)
        << what;
  }
}

TEST(ObservationMemo, CliqueRunsCountEveryLookup) {
  sim::sim_config cfg;
  cfg.sys = {24, 3};
  cfg.compromised = {2, 9, 17};
  cfg.message_count = 200;
  const sim::sim_report r = sim::run_simulation(cfg);
  EXPECT_EQ(r.delivered, 200u);
  EXPECT_EQ(r.obs_memo_hits + r.obs_memo_misses, r.delivered);
  EXPECT_GT(r.obs_memo_hits, 0u);
  EXPECT_GT(r.memo_hits + r.memo_misses, 0u);
  // collect_posteriors scores every message through the engine: no memo
  // lookups, and more layout-memo lookups than the memoized run makes.
  cfg.collect_posteriors = true;
  const sim::sim_report all = sim::run_simulation(cfg);
  EXPECT_EQ(all.obs_memo_hits + all.obs_memo_misses, 0u);
  EXPECT_GT(all.memo_hits + all.memo_misses, r.memo_hits + r.memo_misses);
  EXPECT_EQ(all.posteriors.size(), 200u);
}

}  // namespace
}  // namespace anonpath
