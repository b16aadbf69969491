#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/adversary.hpp"
#include "src/sim/network.hpp"

namespace anonpath::sim {

/// The destination endpoint R. Always compromised per the paper's threat
/// model: every delivery is reported to the adversary with the immediate
/// predecessor.
class receiver_endpoint final : public message_sink {
 public:
  receiver_endpoint(network& net, adversary_model* monitor);

  void on_message(node_id from, std::uint64_t msg) override;

  struct delivery {
    node_id predecessor = 0;
    sim_time at = 0.0;
    bool delivered = false;
  };

  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_;
  }
  /// First delivery of each message, indexed by message id (slots of ids
  /// never delivered stay default, with `delivered` false).
  [[nodiscard]] const std::vector<delivery>& deliveries() const noexcept {
    return deliveries_;
  }

 private:
  network& net_;
  adversary_model* monitor_;
  std::vector<delivery> deliveries_;
  std::uint64_t delivered_ = 0;
};

}  // namespace anonpath::sim
