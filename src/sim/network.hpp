#pragma once

#include <cstdint>
#include <vector>

#include "src/anonymity/types.hpp"
#include "src/net/churn.hpp"
#include "src/net/outage.hpp"
#include "src/net/topology.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/latency.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {

/// Ground-truth summary of one message's journey, as the fabric records it
/// and scoring consumes it (and as sim::trace persists it — identity of
/// intermediate hops is deliberately absent; it is neither scored nor
/// adversary-visible).
struct message_outcome {
  node_id origin = 0;
  sim_time sent_at = 0.0;
  sim_time delivered_at = 0.0;
  bool delivered = false;
  std::uint32_t hops = 0;  ///< intermediate nodes traversed

  friend bool operator==(const message_outcome&,
                         const message_outcome&) = default;
};

/// The simulated fabric: the wire, every relay and the receiver R. By
/// default the clique of paper Sec. 3.1: every host can reach every other
/// host directly; a hop costs a sampled link latency. A non-null `topology`
/// restricts the wire to that graph — the fabric then *asserts* every
/// transmission follows an edge, so a routing layer that ignores the graph
/// fails fast instead of silently teleporting.
///
/// Relays are roles of the fabric, not objects. A message reaching a node
/// is forwarded after the latency_params processing delay, to the hop
/// after the node on its source route (onion routing, the default: the
/// node learns only predecessor and successor, as an onion layer would tell
/// it, with no ciphertext) or, after use_crowds(), to the hop the Crowds
/// coin picks. A message reaching R is delivered. With an adversary
/// attached, compromised senders and relays and the receiver log the
/// paper's Sec. 4 reports.
///
/// Implements the full sim::fault_plan (failure injection): each
/// transmission is dropped independently with the plan's drop probability,
/// in which case the message journey simply ends — exactly how a
/// best-effort datagram network fails. The plan's churn model additionally
/// takes relays down and up mid-run (net::churn_model), and its crash
/// schedule (explicit outages plus seeded mix-failure episodes) takes
/// specific nodes down on a deterministic timetable; a transmission whose
/// destination is down at send time strands there, and the receiver R
/// never fails.
class network {
 public:
  /// Preconditions: node_count >= 2, params.valid(),
  /// faults.valid_for(node_count); `topology`, when non-null, must outlive
  /// the network and have node_count() == node_count; `fault_horizon` > 0
  /// when the plan draws auto-horizon mix failures. A default (inert)
  /// fault plan draws nothing from any generator, so fault-free runs stay
  /// bit-identical to the pre-fault fabric.
  network(std::uint32_t node_count, latency_params params, std::uint64_t seed,
          const fault_plan& faults = {},
          const net::topology* topology = nullptr,
          double fault_horizon = 0.0);

  /// Makes every node a hop-by-hop relay (Crowds / Onion Routing II /
  /// Hordes): it flips a coin that forwards with `forward_prob`, to a
  /// uniform other node — or, on a restricted fabric, to a weighted random
  /// graph neighbour — and otherwise delivers to R. The message travels
  /// unchanged, which is why Crowds messages are trivially correlatable.
  /// Each node draws from its own generator, split from `master` in node
  /// order.
  void use_crowds(double forward_prob, stats::rng& master);

  /// Attaches the adversary's collection apparatus: nodes flagged in
  /// `compromised` (indexed by node id, size node_count) report the
  /// messages they originate and relay, and R reports every delivery; each
  /// report is appended to `log`, which must outlive the network. Nothing
  /// reads the log during the run: the adversary's view is built from it
  /// afterwards (adversary_view). Unattached, nobody reports.
  void attach(std::vector<bool> compromised,
              std::vector<adversary_event>& log);

  /// Starts a message journey at `origin`: records the outcome's start and
  /// reports the origination when `origin` is compromised.
  void originate(node_id origin, sim_time at, std::uint64_t msg_id);

  /// Records `hops` as the source route of `msg_id` (the intermediate
  /// nodes, in order; the receiver follows the last).
  void set_route(std::uint64_t msg_id, const std::vector<node_id>& hops);

  /// The hop after `self` on the route of `msg_id` (`receiver_node` after
  /// the last), advancing the route's cursor past `self`. Precondition:
  /// the route was set and `self` is its next unvisited hop.
  [[nodiscard]] node_id next_hop(std::uint64_t msg_id, node_id self);

  /// Transmits message `msg` from `from` to `to` (`receiver_node` for R)
  /// after a sampled link delay. Preconditions (each asserted, a violation
  /// throws contract_violation): `from` is a node id, `to` is a node id or
  /// `receiver_node`, and — when the fabric carries a topology — (from,
  /// to) is a graph edge.
  void send(node_id from, node_id to, std::uint64_t msg);

  /// Runs the queue until it drains. Hop arrivals and relay forwards are
  /// the fabric's own events; every other kind goes to `other`. Returns
  /// false if the queue's runaway guard stopped it.
  template <class Handler>
  bool run(Handler&& other) {
    return queue_.run_until_empty([&](const sim_event& e) {
      if (e.kind == event_kind::hop_arrival) {
        arrive(e.a, e.b, e.msg);
      } else if (e.kind == event_kind::relay_forward) {
        send(e.a, e.b, e.msg);
      } else {
        other(e);
      }
    });
  }

  /// run() for a fabric that schedules only its own events.
  bool run();

  [[nodiscard]] event_queue& queue() noexcept { return queue_; }
  [[nodiscard]] std::uint32_t node_count() const noexcept { return node_count_; }

  /// Ground truth for tests/metrics, indexed by message id (slots of ids
  /// never originated or sent stay default).
  [[nodiscard]] const std::vector<message_outcome>& outcomes() const noexcept {
    return outcomes_;
  }

  /// Transmissions lost to failure injection so far.
  [[nodiscard]] std::uint64_t dropped_count() const noexcept { return dropped_; }

  /// Transmissions that stranded at a churned-down destination so far.
  [[nodiscard]] std::uint64_t stranded_count() const noexcept {
    return stranded_;
  }

  /// Transmissions that stranded at a crash-scheduled (outage/mix-failure)
  /// destination so far.
  [[nodiscard]] std::uint64_t crashed_count() const noexcept {
    return crashed_;
  }

  /// The availability model (for diagnostics; disabled by default).
  [[nodiscard]] const net::churn_model& churn() const noexcept { return churn_; }

  /// The realized crash/repair timetable (for diagnostics and tests).
  [[nodiscard]] const net::outage_schedule& outages() const noexcept {
    return outages_;
  }

 private:
  /// Where one message's route sits in route_slab_, and how far along it
  /// the message is.
  struct route_cursor {
    std::size_t begin = 0;
    std::uint32_t length = 0;
    std::uint32_t next = 0;
  };

  /// A hop arrival: R delivers; a relay picks its successor by its role
  /// and forwards after the processing delay.
  void arrive(node_id from, node_id to, std::uint64_t msg);
  /// The Crowds coin and hop of relay `self`.
  node_id crowds_hop(node_id self);
  [[nodiscard]] bool compromised(node_id id) const {
    return !compromised_.empty() && compromised_[id];
  }
  message_outcome& outcome_of(std::uint64_t msg);

  std::uint32_t node_count_;
  event_queue queue_;
  latency_model latency_;
  double drop_probability_;
  stats::rng drop_rng_;
  const net::topology* topology_;
  net::churn_model churn_;
  net::outage_schedule outages_;
  std::uint64_t dropped_ = 0;
  std::uint64_t stranded_ = 0;
  std::uint64_t crashed_ = 0;
  /// Hop-by-hop relays' generators, one per node; empty for onion relays.
  std::vector<stats::rng> crowd_gens_;
  double forward_prob_ = 0.0;
  std::vector<bool> compromised_;  ///< empty until attach()
  std::vector<adversary_event>* log_ = nullptr;
  std::vector<message_outcome> outcomes_;
  std::vector<node_id> route_slab_;
  std::vector<route_cursor> routes_;
};

}  // namespace anonpath::sim
