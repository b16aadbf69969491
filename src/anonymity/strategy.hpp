#pragma once

#include <string>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/types.hpp"

namespace anonpath {

/// How the rerouting path is constructed at run time (paper Sec. 2):
/// source-routed systems (Onion Routing I, Freedom, PipeNet) have the sender
/// pick the whole path; hop-by-hop systems (Crowds, Onion Routing II,
/// Hordes) let each intermediate flip the coin.
enum class routing_mode {
  source_routed,
  hop_by_hop,
};

/// Stable label ("source_routed", "hop_by_hop") for CSV and trace surfaces.
[[nodiscard]] constexpr const char* routing_mode_label(routing_mode mode) {
  return mode == routing_mode::source_routed ? "source_routed" : "hop_by_hop";
}

/// A named path-selection strategy: the paper's abstraction of a deployed
/// anonymous communication system.
struct protocol_spec {
  std::string name;
  path_length_distribution lengths;
  routing_mode mode = routing_mode::source_routed;
};

/// Factory functions for every system surveyed in paper Sec. 2, with the
/// path-length behaviour documented there.
namespace protocols {

/// Anonymizer / LPWA: one proxy hop, always.
[[nodiscard]] protocol_spec anonymizer();

/// Lucent Personalized Web Assistant: single intermediate, like Anonymizer.
[[nodiscard]] protocol_spec lpwa();

/// Freedom: sender-chosen path of exactly three intermediate nodes.
[[nodiscard]] protocol_spec freedom();

/// Onion Routing I: fixed five-hop routes (the NRL prototype).
[[nodiscard]] protocol_spec onion_routing_v1();

/// Onion Routing II: Crowds-style coin with forwarding probability pf;
/// route length geometric starting at 1, truncated to max_len.
[[nodiscard]] protocol_spec onion_routing_v2(double forward_prob,
                                             path_length max_len);

/// Crowds: jondo chain with forwarding probability pf (>= 1 jondo).
[[nodiscard]] protocol_spec crowds(double forward_prob, path_length max_len);

/// Hordes: Crowds-like forward path (multicast reverse path does not change
/// the sender-anonymity analysis).
[[nodiscard]] protocol_spec hordes(double forward_prob, path_length max_len);

/// PipeNet: three or four intermediates, equiprobable.
[[nodiscard]] protocol_spec pipenet();

/// All of the above with default parameters, for comparison sweeps
/// (pf = 0.75 as in the Crowds paper, truncation at max_len).
[[nodiscard]] std::vector<protocol_spec> survey(path_length max_len);

}  // namespace protocols

}  // namespace anonpath
