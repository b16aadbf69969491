#include "src/sim/receiver.hpp"

namespace anonpath::sim {

receiver_endpoint::receiver_endpoint(network& net, adversary_model* monitor)
    : net_(net), monitor_(monitor) {}

void receiver_endpoint::on_message(node_id from, std::uint64_t msg) {
  const sim_time at = net_.queue().now();
  if (monitor_ != nullptr) monitor_->note_receipt(msg, at, from);
  if (msg >= deliveries_.size()) deliveries_.resize(msg + 1);
  delivery& d = deliveries_[msg];
  if (d.delivered) return;  // the first delivery stands
  d = delivery{from, at, true};
  ++delivered_;
}

}  // namespace anonpath::sim
