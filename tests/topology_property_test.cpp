// Property/fuzz layer for topology invariants:
//   * every sampled route respects adjacency (and the fabric asserts it);
//   * simulations on restricted graphs deliver, and with churn enabled
//     messages strand at dead hops — deterministically under the seed;
//   * churn rate 0 reproduces the static run bit for bit;
//   * the restricted-path posterior's support is exactly the senders with
//     a positive-probability path (pinned against the graph oracle);
//   * the engine survives mangled observations: it either rejects them or
//     returns a proper distribution, never crashes or mis-normalizes.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/anonymity/path_sampler.hpp"
#include "src/net/graph_oracle.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/sim/network.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/contract.hpp"

namespace anonpath {
namespace {

/// A deterministic zoo of valid configs spanning every family, sized by the
/// fuzz iteration.
net::topology_config fuzz_config(std::uint64_t i, std::uint32_t n) {
  net::topology_config cfg;
  switch (i % 4) {
    case 0:
      cfg.kind = net::topology_kind::ring;
      cfg.ring_k = 1 + static_cast<std::uint32_t>(i / 4) % ((n - 1) / 2);
      break;
    case 1:
      cfg.kind = net::topology_kind::random_regular;
      cfg.degree = (n % 2 == 0 && i % 8 == 1) ? 3 : 4;
      cfg.graph_seed = i;
      break;
    case 2:
      cfg.kind = net::topology_kind::tiered;
      cfg.tiers = 2 + static_cast<std::uint32_t>(i) % (n / 3);
      break;
    default:
      cfg.kind = net::topology_kind::trust_weighted;
      cfg.trust_decay = 0.1 + 0.2 * static_cast<double>(i % 5);
      break;
  }
  return cfg;
}

TEST(TopologyProperty, SampledRoutesRespectAdjacency) {
  stats::rng gen(11);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint32_t n = 8 + static_cast<std::uint32_t>(i % 17);
    const net::topology_config cfg = fuzz_config(i, n);
    ASSERT_TRUE(cfg.valid_for(n)) << cfg.label() << " n=" << n;
    const net::topology topo = net::topology::make(n, cfg);
    for (int rep = 0; rep < 25; ++rep) {
      const auto sender = static_cast<node_id>(gen.next_below(n));
      const auto l = static_cast<path_length>(gen.next_below(9));
      const route r = sample_topology_route(topo, sender, l, gen);
      ASSERT_EQ(r.length(), l);
      node_id prev = sender;
      for (node_id hop : r.hops) {
        ASSERT_TRUE(topo.has_edge(prev, hop))
            << cfg.label() << ": " << prev << "->" << hop;
        prev = hop;
      }
    }
  }
}

TEST(TopologyProperty, FabricAssertsEdgesAndRegistration) {
  // The network is the last line of defense: a send that ignores the graph
  // (or names a party outside the fabric) is a contract violation, not a
  // silent hop.
  const net::topology topo = net::topology::ring(6, 1);
  sim::network net(6, {}, 3, {}, &topo);
  EXPECT_THROW(net.send(0, 3, 1), contract_violation);
  net.send(0, 1, 1);   // a real edge is fine
  net.send(0, 5, 1);   // wrap-around edge too
  net.send(2, receiver_node, 1);  // R always reachable

  sim::network bare(4, {}, 3);
  EXPECT_THROW(bare.send(0, 4, 1), contract_violation);
}

TEST(TopologyProperty, FabricCountsStrandsSeparatelyFromDrops) {
  // Churn strands are their own counter, distinct from random link drops;
  // the fabric's diagnostics must attribute undelivered messages to the
  // right cause.
  sim::network net(4, {0.001, 0.0, 0.0}, 5,
                   sim::fault_plan{.churn = net::churn_config{
                       50.0, 10.0}});  // fails fast, stays down
  EXPECT_TRUE(net.churn().enabled());
  // March simulated time forward so the renewal schedules advance; once a
  // destination is down at send time the message strands. Each message is
  // a one-hop onion whose relay delivers to R.
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto hop = 1 + static_cast<node_id>(i % 3);
    net.set_route(i + 1, {hop});
    net.send(0, hop, i + 1);
    net.run();
  }
  EXPECT_GT(net.stranded_count(), 0u);
  EXPECT_EQ(net.dropped_count(), 0u);  // no loss injection configured
}

TEST(TopologyProperty, RestrictedRunsDeliverAndScore) {
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint32_t n = 18 + static_cast<std::uint32_t>(i);
    sim::sim_config cfg;
    cfg.sys = {n, 2};
    cfg.compromised = spread_compromised(n, 2);
    cfg.lengths = path_length_distribution::uniform(1, 5);
    cfg.message_count = 150;
    cfg.seed = 100 + i;
    cfg.topology = fuzz_config(i, n);
    ASSERT_TRUE(cfg.topology.valid_for(n));
    const auto report = sim::run_simulation(cfg);
    // Lossless static fabric: everything delivers (the walk sampler only
    // proposes real edges, or network::send would have thrown).
    EXPECT_EQ(report.delivered, cfg.message_count) << cfg.topology.label();
    EXPECT_FALSE(std::isnan(report.empirical_entropy_bits));
    EXPECT_GT(report.empirical_entropy_bits, 0.0);
    EXPECT_LE(report.top1_accuracy, 1.0);
  }
}

TEST(TopologyProperty, ChurnZeroReproducesStaticRunBitForBit) {
  sim::sim_config cfg;
  cfg.sys = {24, 3};
  cfg.compromised = spread_compromised(24, 3);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 300;
  cfg.seed = 5;
  cfg.collect_posteriors = true;
  cfg.topology.kind = net::topology_kind::ring;
  cfg.topology.ring_k = 3;

  sim::sim_config zero = cfg;
  zero.faults.churn = net::churn_config{0.0, 123.0};  // rate 0, whatever the mean

  const auto a = sim::run_simulation(cfg);
  const auto b = sim::run_simulation(zero);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.end_to_end_latency.mean(), b.end_to_end_latency.mean());
  EXPECT_EQ(a.empirical_entropy_bits, b.empirical_entropy_bits);
  EXPECT_EQ(a.hop_histogram, b.hop_histogram);
  EXPECT_EQ(a.posteriors, b.posteriors);
}

TEST(TopologyProperty, ChurnStrandsMessagesDeterministically) {
  sim::sim_config cfg;
  cfg.sys = {30, 2};
  cfg.compromised = spread_compromised(30, 2);
  cfg.lengths = path_length_distribution::uniform(2, 8);
  cfg.message_count = 400;
  cfg.arrival_rate = 100.0;
  cfg.seed = 21;
  cfg.faults.churn = net::churn_config{1.0, 0.3};  // frequent short outages

  const auto a = sim::run_simulation(cfg);
  EXPECT_LT(a.delivered, a.submitted) << "no message ever stranded";
  EXPECT_GT(a.delivered, 0u) << "network completely dead";
  const auto b = sim::run_simulation(cfg);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.end_to_end_latency.mean(), b.end_to_end_latency.mean());

  // Churn composes with a restricted graph.
  cfg.topology.kind = net::topology_kind::tiered;
  cfg.topology.tiers = 3;
  const auto c = sim::run_simulation(cfg);
  EXPECT_LT(c.delivered, c.submitted);
  EXPECT_GT(c.delivered, 0u);
}

TEST(TopologyProperty, PosteriorSupportMatchesOracleSupport) {
  // Posterior support ⊆ {senders with a positive-probability path}: on
  // every oracle event, the engine gives mass to exactly the senders the
  // exhaustive enumeration reaches.
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint32_t n = 7;
    const net::topology topo = net::topology::make(n, fuzz_config(i, n));
    const std::vector<node_id> comp{0, 4};
    const system_params sys{n, 2};
    const auto d = path_length_distribution::uniform(0, 3);
    const net::graph_oracle oracle(sys, comp, d, topo);
    const net::topology_posterior_engine engine(sys, comp, d, topo);
    for (const auto& event : oracle.events()) {
      const auto post = engine.sender_posterior(event.obs);
      for (node_id s = 0; s < n; ++s) {
        if (event.posterior[s] == 0.0)
          EXPECT_LT(post[s], 1e-14)
              << topo.config().label() << " phantom mass on " << s;
        else
          EXPECT_GT(post[s], 0.0)
              << topo.config().label() << " lost support on " << s;
      }
    }
  }
}

TEST(TopologyProperty, RingDistanceBoundsSupport) {
  // A direct reachability statement: on ring(1), a sender farther than the
  // max walk length from the first observed node can never have produced
  // the message, and the posterior must say so.
  const std::uint32_t n = 20;
  const net::topology topo = net::topology::ring(n, 1);
  const std::vector<node_id> comp{0};
  const auto d = path_length_distribution::uniform(0, 4);
  const net::topology_posterior_engine engine({n, 1}, comp, d, topo);

  observation obs;  // node 0 saw 19 -> 0 -> 1; receiver heard from 3
  obs.reports.push_back(hop_report{0, 19, 1});
  obs.receiver_predecessor = 3;
  const auto post = engine.sender_posterior(obs);
  for (node_id s = 0; s < n; ++s) {
    const std::uint32_t dist = std::min(s >= 19 ? s - 19 : 19 - s,
                                        n - (s >= 19 ? s - 19 : 19 - s));
    // Walk budget before reaching 19: at most max_length + 1 - (observed
    // span) steps; anything farther is impossible.
    if (dist > 2)
      EXPECT_EQ(post[s], 0.0) << "sender " << s << " is out of range";
  }
  const double total = std::accumulate(post.begin(), post.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(TopologyProperty, EngineSurvivesMangledObservations) {
  const std::uint32_t n = 12;
  const net::topology topo = net::topology::tiered(n, 3);
  const std::vector<node_id> comp{1, 6, 10};
  const auto d = path_length_distribution::uniform(1, 5);
  const net::topology_posterior_engine engine({n, 3}, comp, d, topo);

  stats::rng gen(77);
  std::vector<bool> flags(n, false);
  for (node_id c : comp) flags[c] = true;
  std::vector<double> post;
  int rejected = 0;
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    route r = sample_topology_route(
        topo, static_cast<node_id>(gen.next_below(n)),
        static_cast<path_length>(1 + gen.next_below(5)), gen);
    observation obs = observe(r, flags);
    // Mangle: drop a report, swap two reports, or corrupt a field.
    switch (gen.next_below(4)) {
      case 0:
        if (!obs.reports.empty())
          obs.reports.erase(obs.reports.begin() +
                            static_cast<long>(gen.next_below(obs.reports.size())));
        break;
      case 1:
        if (obs.reports.size() >= 2)
          std::swap(obs.reports.front(), obs.reports.back());
        break;
      case 2:
        obs.receiver_predecessor = static_cast<node_id>(gen.next_below(n));
        break;
      default:
        if (!obs.reports.empty())
          obs.reports.front().predecessor =
              static_cast<node_id>(gen.next_below(n));
        break;
    }
    if (engine.try_sender_posterior(obs, post)) {
      ++accepted;
      double total = 0.0;
      for (double p : post) {
        EXPECT_GE(p, 0.0);
        total += p;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    } else {
      ++rejected;
      for (double p : post) EXPECT_EQ(p, 0.0);
    }
  }
  // The fuzz must exercise both outcomes to mean anything.
  EXPECT_GT(rejected, 10);
  EXPECT_GT(accepted, 10);
}

}  // namespace
}  // namespace anonpath
