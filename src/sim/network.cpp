#include "src/sim/network.hpp"

#include <utility>

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
      outages_(faults.materialize(node_count, seed, fault_horizon)) {
  ANONPATH_EXPECTS(node_count >= 2);
  ANONPATH_EXPECTS(faults.valid_for(node_count));
  ANONPATH_EXPECTS(topology == nullptr ||
                   topology->node_count() == node_count);
}

void network::use_crowds(double forward_prob, stats::rng& master) {
  ANONPATH_EXPECTS(forward_prob >= 0.0 && forward_prob <= 1.0);
  forward_prob_ = forward_prob;
  crowd_gens_.reserve(node_count_);
  for (node_id i = 0; i < node_count_; ++i)
    crowd_gens_.push_back(master.split());
}

void network::attach(std::vector<bool> compromised,
                     std::vector<adversary_event>& log) {
  ANONPATH_EXPECTS(compromised.size() == node_count_);
  compromised_ = std::move(compromised);
  log_ = &log;
}

message_outcome& network::outcome_of(std::uint64_t msg) {
  if (msg >= outcomes_.size()) outcomes_.resize(msg + 1);
  return outcomes_[msg];
}

void network::originate(node_id origin, sim_time at, std::uint64_t msg_id) {
  ANONPATH_EXPECTS(origin < node_count_);
  message_outcome& out = outcome_of(msg_id);
  out.origin = origin;
  out.sent_at = at;
  if (compromised(origin))
    log_->push_back(
        {adversary_event::kind::origin, msg_id, 0.0, origin, 0, 0});
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
  ANONPATH_EXPECTS(to < node_count_ || to == receiver_node);
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
    ++crashed_;  // journey ends; the outcome stays undelivered
    return;
  }
  if (to != receiver_node && churn_.enabled() &&
      !churn_.is_up(to, queue_.now())) {
    ++stranded_;  // journey ends; the outcome stays undelivered
    return;
  }

  if (drop_probability_ > 0.0 && drop_rng_.next_bernoulli(drop_probability_)) {
    ++dropped_;  // journey ends silently; the outcome stays undelivered
    return;
  }

  queue_.schedule_in(latency_.link_delay(), event_kind::hop_arrival, msg, from,
                     to);
}

node_id network::crowds_hop(node_id self) {
  stats::rng& gen = crowd_gens_[self];
  if (!gen.next_bernoulli(forward_prob_)) return receiver_node;
  if (topology_ != nullptr) return topology_->sample_neighbor(self, gen);
  auto draw = static_cast<node_id>(gen.next_below(node_count_ - 1));
  if (draw >= self) ++draw;
  return draw;
}

void network::arrive(node_id from, node_id to, std::uint64_t msg) {
  message_outcome& out = outcome_of(msg);
  const sim_time now = queue_.now();
  if (to == receiver_node) {
    out.delivered = true;
    out.delivered_at = now;
    if (log_ != nullptr)
      log_->push_back({adversary_event::kind::receipt, msg, now, 0, from, 0});
    return;
  }
  ++out.hops;
  const node_id next =
      crowd_gens_.empty() ? next_hop(msg, to) : crowds_hop(to);
  if (compromised(to))
    log_->push_back({adversary_event::kind::relay, msg, now, to, from, next});
  queue_.schedule_in(latency_.processing_delay(), event_kind::relay_forward,
                     msg, to, next);
}

bool network::run() {
  return run([](const sim_event&) {
    ANONPATH_EXPECTS(!"only hop arrivals and relay forwards are scheduled");
  });
}

}  // namespace anonpath::sim
