#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/net/topology.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/network.hpp"
#include "src/sim/workload.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace anonpath::sim {
namespace {

TEST(Latency, SamplesWithinConfiguredRange) {
  latency_model m({0.010, 0.005, 0.002}, stats::rng(1));
  for (int i = 0; i < 1000; ++i) {
    const double d = m.link_delay();
    EXPECT_GE(d, 0.010);
    EXPECT_LT(d, 0.015);
  }
  EXPECT_DOUBLE_EQ(m.processing_delay(), 0.002);
}

TEST(Latency, RejectsNegativeParams) {
  EXPECT_THROW(latency_model({-0.1, 0.0, 0.0}, stats::rng(1)),
               contract_violation);
}

TEST(Workload, PoissonArrivalsAreOrderedAndComplete) {
  stats::rng g(3);
  const auto w = poisson_workload(50, 100.0, 500, g);
  ASSERT_EQ(w.size(), 500u);
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_GT(w[i].at, w[i - 1].at);
    EXPECT_LT(w[i].sender, 50u);
  }
  // Ids unique, starting at 1.
  EXPECT_EQ(w.front().msg_id, 1u);
  EXPECT_EQ(w.back().msg_id, 500u);
}

TEST(Workload, MeanInterArrivalMatchesRate) {
  stats::rng g(8);
  const auto w = poisson_workload(10, 200.0, 20000, g);
  const double span = w.back().at - w.front().at;
  const double mean_gap = span / static_cast<double>(w.size() - 1);
  EXPECT_NEAR(mean_gap, 1.0 / 200.0, 0.0002);
}

TEST(Network, DeliversWithLatency) {
  network net(4, {0.010, 0.0, 0.0}, 7);

  // Single-hop onion: sender 1 -> relay 0 -> R.
  const route path{1, {0}};
  net.originate(1, 0.0, 42);
  net.set_route(42, path.hops);
  net.send(1, 0, 42);
  EXPECT_TRUE(net.run());
  const message_outcome& out = net.outcomes().at(42);
  EXPECT_TRUE(out.delivered);
  // Two links of exactly 10ms each (no jitter, no processing).
  EXPECT_NEAR(out.delivered_at, 0.020, 1e-12);
  EXPECT_EQ(out.hops, 1u);
}

TEST(Network, RejectsUnregisteredTargets) {
  // Both endpoints of a transmission must be node ids (or R for the
  // destination) — send() asserts the documented precondition instead of
  // indexing past the fabric.
  network net(4, {}, 7);
  EXPECT_THROW(net.send(0, 4, 1), contract_violation);  // destination
  EXPECT_THROW(net.send(4, 0, 1), contract_violation);  // sender
  EXPECT_THROW(net.send(receiver_node, 0, 1), contract_violation);
}

TEST(Network, RouteCursorRevealsOnlyEachSuccessor) {
  // A relay learns the hop after itself and nothing more; a node that is
  // not the route's next hop cannot read it, and a route cannot be read
  // past its end.
  network net(6, {}, 7);
  net.set_route(5, {3, 1});
  EXPECT_THROW((void)net.next_hop(5, 1), contract_violation);  // not yet
  EXPECT_EQ(net.next_hop(5, 3), 1u);
  EXPECT_EQ(net.next_hop(5, 1), receiver_node);
  EXPECT_THROW((void)net.next_hop(5, 1), contract_violation);  // past end
  EXPECT_THROW((void)net.next_hop(9, 3), contract_violation);  // no route
}

constexpr auto origin_event = adversary_event::kind::origin;
constexpr auto relay_event = adversary_event::kind::relay;
constexpr auto receipt_event = adversary_event::kind::receipt;

/// The full coalition's view of `log` under `flags`.
adversary_view full_view(const std::vector<bool>& flags,
                         const std::vector<adversary_event>& log) {
  return adversary_view(adversary_config{}, flags, latency_params{}, log);
}

bool observed(const adversary_view& view, std::uint64_t msg) {
  const auto ids = view.observed_messages();
  return std::find(ids.begin(), ids.end(), msg) != ids.end();
}

TEST(AdversaryMonitor, AssemblesTimeSortedObservation) {
  const adversary_view view = full_view(
      {false, true, false, true, false},
      {{relay_event, 9, 3.0, 3, 2, 4},  // later capture filed first
       {relay_event, 9, 1.0, 1, 0, 2},
       {receipt_event, 9, 5.0, 0, 4, 0}});
  ASSERT_TRUE(observed(view, 9));
  const auto obs = view.assemble(9);
  ASSERT_EQ(obs.reports.size(), 2u);
  EXPECT_EQ(obs.reports[0].reporter, 1u);  // time-sorted
  EXPECT_EQ(obs.reports[1].reporter, 3u);
  EXPECT_EQ(obs.receiver_predecessor, 4u);
  EXPECT_FALSE(obs.origin.has_value());
}

TEST(AdversaryMonitor, TracksOrigin) {
  const adversary_view view = full_view(
      {true, false},
      {{origin_event, 1, 0.0, 0, 0, 0}, {receipt_event, 1, 1.0, 0, 0, 0}});
  const auto obs = view.assemble(1);
  ASSERT_TRUE(obs.origin.has_value());
  EXPECT_EQ(*obs.origin, 0u);
}

TEST(AdversaryMonitor, IncompleteMessagesRejected) {
  const adversary_view view =
      full_view({true, false}, {{relay_event, 5, 1.0, 0, 1, receiver_node}});
  EXPECT_FALSE(observed(view, 5));
  EXPECT_THROW((void)view.assemble(5), std::out_of_range);
  EXPECT_TRUE(view.observed_messages().empty());
}

TEST(AdversaryMonitor, HonestNodeCannotReport) {
  EXPECT_THROW((void)full_view({false, true},
                               {{relay_event, 1, 0.0, 0, 1, receiver_node}}),
               contract_violation);
  EXPECT_THROW((void)full_view({false, true}, {{origin_event, 1, 0.0, 0, 0, 0}}),
               contract_violation);
}

TEST(OnionRelayChain, FullRouteDeliversAndLogsCompromisedHops) {
  // Route 2 -> 0 -> 1 -> 3 -> R with node 1 compromised.
  const std::vector<bool> comp{false, true, false, false};
  network net(4, {0.001, 0.0, 0.0}, 9);
  std::vector<adversary_event> log;
  net.attach(comp, log);

  const route path{2, {0, 1, 3}};
  net.originate(2, 0.0, 77);
  net.set_route(77, path.hops);
  net.send(2, 0, 77);
  EXPECT_TRUE(net.run());

  EXPECT_TRUE(net.outcomes().at(77).delivered);
  EXPECT_EQ(net.outcomes().at(77).hops, 3u);
  const auto obs = full_view(comp, log).assemble(77);
  ASSERT_EQ(obs.reports.size(), 1u);
  EXPECT_EQ(obs.reports[0].reporter, 1u);
  EXPECT_EQ(obs.reports[0].predecessor, 0u);
  EXPECT_EQ(obs.reports[0].successor, 3u);
  EXPECT_EQ(obs.receiver_predecessor, 3u);

  // The view's observation must equal the oracle `observe` on the
  // ground-truth route — the simulation and the view agree.
  EXPECT_EQ(obs, observe(path, comp));
}

TEST(CrowdsRelay, HopByHopFabricLogsEachForwardWithItsSuccessor) {
  // Crowds on ring(4, 1) = 0-1-2-3-0 with node 2 compromised. Every link
  // costs exactly 1 ms and relays add no delay, so the time between two
  // consecutive sightings of a message counts its links. Between node 2
  // forwarding to successor s and the next sighting (node 2 again, or R)
  // from predecessor p, the message walks the honest path 3-0-1 from s to
  // p — possible only when the step count matches their distance. A
  // successor that was not the hop actually taken breaks that sooner or
  // later (a direct bounce 2 -> s -> 2 needs p == s).
  const net::topology ring = net::topology::ring(4, 1);
  network net(4, {0.001, 0.0, 0.0}, 11, {}, &ring);
  stats::rng master(5);
  net.use_crowds(0.75, master);
  std::vector<adversary_event> log;
  net.attach({false, false, true, false}, log);

  constexpr std::uint64_t messages = 200;
  for (std::uint64_t msg = 1; msg <= messages; ++msg) {
    net.originate(1, 0.0, msg);
    net.send(1, 2, msg);  // the first jondo is the compromised node
  }
  EXPECT_TRUE(net.run());

  const auto pos = [](node_id v) { return v == 3 ? 0 : v == 0 ? 1 : 2; };
  const auto links = [](sim_time from, sim_time to) {
    return std::lround((to - from) / 0.001);
  };
  // Per message: the last forward by node 2 (time, successor).
  std::vector<std::optional<std::pair<sim_time, node_id>>> last(messages + 1);
  std::uint64_t forwards = 0, receipts = 0, bounces = 0;
  for (const adversary_event& e : log) {
    ASSERT_NE(e.type, adversary_event::kind::origin);  // sender 1 is honest
    const bool receipt = e.type == adversary_event::kind::receipt;
    if (!receipt) {
      ++forwards;
      EXPECT_EQ(e.reporter, 2u);
      ASSERT_TRUE(e.successor == receiver_node ||
                  ring.has_edge(2, e.successor))
          << e.successor;
    } else {
      ++receipts;
    }
    auto& prev = last[e.msg];
    if (!prev) {
      // First sighting: node 2 receives from the sender 1 ms in.
      ASSERT_FALSE(receipt);
      EXPECT_EQ(e.predecessor, 1u);
      EXPECT_EQ(links(0.0, e.at), 1);
    } else if (prev->second == receiver_node) {
      // Node 2 delivered: the receipt follows one link later, from 2.
      ASSERT_TRUE(receipt);
      EXPECT_EQ(e.predecessor, 2u);
      EXPECT_EQ(links(prev->first, e.at), 1);
    } else {
      // 2 -> s, an honest walk s ~> p, then p -> here: two links plus the
      // walk's steps.
      const long steps = links(prev->first, e.at) - 2;
      const long dist = std::labs(pos(prev->second) - pos(e.predecessor));
      EXPECT_TRUE(steps >= dist && (steps - dist) % 2 == 0)
          << "msg " << e.msg << ": successor " << prev->second
          << " cannot reach " << e.predecessor << " in " << steps;
      if (steps == 0) ++bounces;
    }
    if (!receipt) prev.emplace(e.at, e.successor);
  }
  EXPECT_EQ(receipts, messages);  // lossless fabric: everything delivers
  EXPECT_GE(forwards, messages);  // node 2 relays every message
  EXPECT_GT(bounces, 0u);         // the direct-bounce check was exercised
  for (std::uint64_t msg = 1; msg <= messages; ++msg) {
    EXPECT_TRUE(net.outcomes().at(msg).delivered);
    EXPECT_GE(net.outcomes().at(msg).hops, 1u);
  }
}

}  // namespace
}  // namespace anonpath::sim
