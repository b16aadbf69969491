#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/sim/adversary.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/network.hpp"
#include "src/sim/receiver.hpp"
#include "src/sim/relay.hpp"
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
  adversary_monitor monitor(std::vector<bool>(4, false));
  receiver_endpoint recv(net, &monitor);
  net.register_receiver(recv);

  onion_relay r0(0, net, 0.0, false, &monitor);
  net.register_node(0, r0);
  onion_relay r1(1, net, 0.0, false, &monitor);
  net.register_node(1, r1);  // send() requires the sender registered too

  // Single-hop onion: sender 1 -> relay 0 -> R.
  const route path{1, {0}};
  net.originate(1, 0.0, 42);
  net.set_route(42, path.hops);
  net.send(1, 0, 42);
  EXPECT_TRUE(net.run());
  EXPECT_EQ(recv.delivered_count(), 1u);
  // Two links of exactly 10ms each (no jitter, no processing).
  EXPECT_NEAR(recv.deliveries().at(42).at, 0.020, 1e-12);
  EXPECT_TRUE(net.traces().at(42).delivered);
  EXPECT_EQ(net.traces().at(42).visited, (std::vector<node_id>{0}));
}

TEST(Network, RejectsUnregisteredTargets) {
  // Both endpoints of a transmission must be registered — send() asserts
  // the documented precondition instead of dereferencing a null sink.
  network net(4, {}, 7);
  onion_relay r0(0, net, 0.0, false, nullptr);
  net.register_node(0, r0);
  // Registered sender, unregistered destination.
  EXPECT_THROW(net.send(0, 2, 1), contract_violation);
  // Unregistered sender.
  EXPECT_THROW(net.send(3, 0, 1), contract_violation);
  // Registered sender, unregistered receiver endpoint.
  EXPECT_THROW(net.send(0, receiver_node, 1), contract_violation);
}

TEST(Network, RejectsDuplicateRegistration) {
  network net(4, {}, 7);
  onion_relay r0(0, net, 0.0, false, nullptr);
  net.register_node(0, r0);
  EXPECT_THROW(net.register_node(0, r0), contract_violation);
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

TEST(AdversaryMonitor, AssemblesTimeSortedObservation) {
  adversary_monitor monitor({false, true, false, true, false});
  monitor.note_relay(9, 3.0, 3, 2, 4);   // later capture filed first
  monitor.note_relay(9, 1.0, 1, 0, 2);
  monitor.note_receipt(9, 5.0, 4);
  ASSERT_TRUE(monitor.complete(9));
  const auto obs = monitor.assemble(9);
  ASSERT_EQ(obs.reports.size(), 2u);
  EXPECT_EQ(obs.reports[0].reporter, 1u);  // time-sorted
  EXPECT_EQ(obs.reports[1].reporter, 3u);
  EXPECT_EQ(obs.receiver_predecessor, 4u);
  EXPECT_FALSE(obs.origin.has_value());
}

TEST(AdversaryMonitor, TracksOrigin) {
  adversary_monitor monitor({true, false});
  monitor.note_origin(1, 0);
  monitor.note_receipt(1, 1.0, 0);
  const auto obs = monitor.assemble(1);
  ASSERT_TRUE(obs.origin.has_value());
  EXPECT_EQ(*obs.origin, 0u);
}

TEST(AdversaryMonitor, IncompleteMessagesRejected) {
  adversary_monitor monitor({true, false});
  monitor.note_relay(5, 1.0, 0, 1, receiver_node);
  EXPECT_FALSE(monitor.complete(5));
  EXPECT_THROW((void)monitor.assemble(5), std::out_of_range);
  EXPECT_TRUE(monitor.delivered_messages().empty());
}

TEST(AdversaryMonitor, HonestNodeCannotReport) {
  adversary_monitor monitor({false, true});
  EXPECT_THROW(monitor.note_relay(1, 0.0, 0, 1, receiver_node),
               contract_violation);
  EXPECT_THROW(monitor.note_origin(1, 0), contract_violation);
}

TEST(OnionRelayChain, FullRouteDeliversAndLogsCompromisedHops) {
  // Route 2 -> 0 -> 1 -> 3 -> R with node 1 compromised.
  const std::vector<bool> comp{false, true, false, false};
  network net(4, {0.001, 0.0, 0.0}, 9);
  adversary_monitor monitor(comp);
  receiver_endpoint recv(net, &monitor);
  net.register_receiver(recv);
  std::vector<std::unique_ptr<onion_relay>> relays;
  for (node_id i = 0; i < 4; ++i) {
    relays.push_back(
        std::make_unique<onion_relay>(i, net, 0.0, comp[i], &monitor));
    net.register_node(i, *relays[i]);
  }

  const route path{2, {0, 1, 3}};
  net.originate(2, 0.0, 77);
  net.set_route(77, path.hops);
  net.send(2, 0, 77);
  EXPECT_TRUE(net.run());

  EXPECT_EQ(recv.delivered_count(), 1u);
  const auto obs = monitor.assemble(77);
  ASSERT_EQ(obs.reports.size(), 1u);
  EXPECT_EQ(obs.reports[0].reporter, 1u);
  EXPECT_EQ(obs.reports[0].predecessor, 0u);
  EXPECT_EQ(obs.reports[0].successor, 3u);
  EXPECT_EQ(obs.receiver_predecessor, 3u);

  // The monitor's observation must equal the oracle `observe` on the
  // ground-truth route — the simulation and the model agree.
  EXPECT_EQ(obs, observe(path, comp));
}

}  // namespace
}  // namespace anonpath::sim
