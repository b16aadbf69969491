#include "src/sim/network.hpp"

#include "src/stats/contract.hpp"

namespace anonpath::sim {

network::network(std::uint32_t node_count, latency_params params,
                 std::uint64_t seed, const fault_plan& faults,
                 const net::topology* topology, double fault_horizon)
    : node_count_(node_count),
      latency_(params, stats::rng(seed)),
      drop_probability_(faults.drop_probability),
      drop_rng_(seed ^ 0x5bf03635f0a5b1c5ULL),
      topology_(topology),
      churn_(node_count, faults.churn, seed ^ 0x94d049bb133111ebULL),
      outages_(faults.materialize(node_count, seed, fault_horizon)),
      sinks_(node_count, nullptr) {
  ANONPATH_EXPECTS(node_count >= 2);
  ANONPATH_EXPECTS(faults.valid_for(node_count));
  ANONPATH_EXPECTS(topology == nullptr ||
                   topology->node_count() == node_count);
}

void network::register_node(node_id id, message_sink& sink) {
  ANONPATH_EXPECTS(id < node_count_);
  ANONPATH_EXPECTS(sinks_[id] == nullptr);
  sinks_[id] = &sink;
}

void network::register_receiver(message_sink& sink) {
  ANONPATH_EXPECTS(receiver_sink_ == nullptr);
  receiver_sink_ = &sink;
}

message_trace& network::trace_of(std::uint64_t msg) {
  if (msg >= traces_.size()) traces_.resize(msg + 1);
  return traces_[msg];
}

void network::originate(node_id origin, sim_time at, std::uint64_t msg_id) {
  ANONPATH_EXPECTS(origin < node_count_);
  auto& trace = trace_of(msg_id);
  trace.origin = origin;
  trace.sent_at = at;
}

void network::set_route(std::uint64_t msg_id,
                        const std::vector<node_id>& hops) {
  if (msg_id >= routes_.size()) routes_.resize(msg_id + 1);
  routes_[msg_id] = route_cursor{route_slab_.size(),
                                 static_cast<std::uint32_t>(hops.size()), 0};
  route_slab_.insert(route_slab_.end(), hops.begin(), hops.end());
}

node_id network::next_hop(std::uint64_t msg_id, node_id self) {
  ANONPATH_EXPECTS(msg_id < routes_.size());
  route_cursor& c = routes_[msg_id];
  ANONPATH_EXPECTS(c.next < c.length && route_slab_[c.begin + c.next] == self);
  return ++c.next < c.length ? route_slab_[c.begin + c.next] : receiver_node;
}

void network::send(node_id from, node_id to, std::uint64_t msg) {
  ANONPATH_EXPECTS(from < node_count_);
  ANONPATH_EXPECTS(sinks_[from] != nullptr);  // sender must be registered too
  ANONPATH_EXPECTS(to < node_count_ || to == receiver_node);
  ANONPATH_EXPECTS((to == receiver_node ? receiver_sink_ : sinks_[to]) !=
                   nullptr);
  // A restricted fabric only carries edges of its graph; the receiver is an
  // external party reachable from everywhere.
  if (topology_ != nullptr && to != receiver_node)
    ANONPATH_EXPECTS(topology_->has_edge(from, to));

  // A crashed or churned-down destination strands the message at the dead
  // hop (the sender's transmission is gone; recovery is the *sender's* job
  // via the retry policy, never the fabric's). The receiver never fails.
  // Both availability checks precede the loss coin — the crash schedule is
  // draw-free and a disabled churn model draws nothing — so an inert fault
  // plan leaves the drop rng stream untouched.
  if (to != receiver_node && outages_.enabled() &&
      outages_.is_down(to, queue_.now())) {
    ++crashed_;  // journey ends; the trace stays undelivered
    return;
  }
  if (to != receiver_node && churn_.enabled() &&
      !churn_.is_up(to, queue_.now())) {
    ++stranded_;  // journey ends; the trace stays undelivered
    return;
  }

  if (drop_probability_ > 0.0 && drop_rng_.next_bernoulli(drop_probability_)) {
    ++dropped_;  // journey ends silently; the trace stays undelivered
    return;
  }

  queue_.schedule_in(latency_.link_delay(), event_kind::hop_arrival, msg, from,
                     to);
}

void network::send_after(sim_time delay, node_id from, node_id to,
                         std::uint64_t msg) {
  queue_.schedule_in(delay, event_kind::relay_forward, msg, from, to);
}

void network::arrive(node_id from, node_id to, std::uint64_t msg) {
  auto& trace = trace_of(msg);
  if (to == receiver_node) {
    trace.delivered = true;
    trace.delivered_at = queue_.now();
    receiver_sink_->on_message(from, msg);
  } else {
    trace.visited.push_back(to);
    sinks_[to]->on_message(from, msg);
  }
}

bool network::run() {
  return run([](const sim_event&) {
    ANONPATH_EXPECTS(!"only hop arrivals and relay forwards are scheduled");
  });
}

}  // namespace anonpath::sim
