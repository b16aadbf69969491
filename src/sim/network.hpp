#pragma once

#include <cstdint>
#include <vector>

#include "src/anonymity/types.hpp"
#include "src/net/churn.hpp"
#include "src/net/outage.hpp"
#include "src/net/topology.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/latency.hpp"

namespace anonpath::sim {

/// Interface of anything that can accept a message from the wire.
class message_sink {
 public:
  virtual ~message_sink() = default;
  /// `from` is the transport-level immediate sender (what a real node's
  /// network stack would see). Exactly the paper's observability model.
  /// `msg` is the message id: the correlation handle the paper's
  /// worst-case adversary is granted (Sec. 4). Honest parties never route
  /// by it; an onion relay learns its successor from the source route.
  virtual void on_message(node_id from, std::uint64_t msg) = 0;
};

/// Ground-truth record of one message's journey, kept by the network fabric
/// (the "physics" of the simulation — never visible to the adversary).
struct message_trace {
  node_id origin = 0;
  std::vector<node_id> visited;   ///< nodes traversed after the origin
  sim_time sent_at = 0.0;
  sim_time delivered_at = 0.0;
  bool delivered = false;
};

/// The transport fabric. By default the clique of paper Sec. 3.1: every
/// host can reach every other host directly; a hop costs a sampled link
/// latency. A non-null `topology` restricts the wire to that graph — the
/// fabric then *asserts* every transmission follows an edge, so a routing
/// layer that ignores the graph fails fast instead of silently teleporting.
/// Implements the full sim::fault_plan (failure injection): each
/// transmission is dropped independently with the plan's drop probability,
/// in which case the message journey simply ends — exactly how a
/// best-effort datagram network fails. The plan's churn model additionally
/// takes relays down and up mid-run (net::churn_model), and its crash
/// schedule (explicit outages plus seeded mix-failure episodes) takes
/// specific nodes down on a deterministic timetable; a transmission whose
/// destination is down at send time strands there, and the receiver R
/// never fails. Also the keeper of ground-truth traces for validation, and
/// of each source-routed message's route: a relay reads the hop after
/// itself through a per-message cursor, so it learns only predecessor and
/// successor, as an onion layer would tell it, with no ciphertext.
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

  /// Registers the sink for a relay node (exactly once per id).
  void register_node(node_id id, message_sink& sink);

  /// Registers the receiver endpoint R.
  void register_receiver(message_sink& sink);

  /// Starts a message journey at `origin` (records the trace start).
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
  /// throws contract_violation): `from` is a registered node id, `to` is a
  /// registered node id or `receiver_node` with the receiver registered,
  /// and — when the fabric carries a topology — (from, to) is a graph
  /// edge. Unregistered endpoints are a programming error, never a silent
  /// no-op or a crash on a null sink.
  void send(node_id from, node_id to, std::uint64_t msg);

  /// Schedules `from` to send(from, to, msg) `delay` seconds from now (a
  /// relay's processing delay).
  void send_after(sim_time delay, node_id from, node_id to, std::uint64_t msg);

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
  [[nodiscard]] const std::vector<message_trace>& traces() const noexcept {
    return traces_;
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

  void arrive(node_id from, node_id to, std::uint64_t msg);
  message_trace& trace_of(std::uint64_t msg);

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
  std::vector<message_sink*> sinks_;
  message_sink* receiver_sink_ = nullptr;
  std::vector<message_trace> traces_;
  std::vector<node_id> route_slab_;
  std::vector<route_cursor> routes_;
};

}  // namespace anonpath::sim
