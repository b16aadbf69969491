#pragma once

#include "src/sim/adversary.hpp"
#include "src/sim/network.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {

/// A source-routed relay (Onion Routing / Freedom / PipeNet style): reads
/// the hop after itself from the message's route — all an onion layer
/// would reveal — so it learns only predecessor and successor, and
/// forwards after a processing delay. If compromised, its adversary agent
/// files the paper's (t, pred, succ) tuple.
class onion_relay final : public message_sink {
 public:
  onion_relay(node_id self, network& net, double processing_delay,
              bool compromised, adversary_model* monitor);

  void on_message(node_id from, std::uint64_t msg) override;

  [[nodiscard]] node_id id() const noexcept { return self_; }
  [[nodiscard]] std::uint64_t forwarded_count() const noexcept {
    return forwarded_;
  }

 private:
  node_id self_;
  network& net_;
  double processing_delay_;
  bool compromised_;
  adversary_model* monitor_;
  std::uint64_t forwarded_ = 0;
};

/// A hop-by-hop relay (Crowds / Onion Routing II / Hordes style): flips the
/// forwarding coin; forwards to a uniform random other node — or, on a
/// restricted fabric, to a weighted random graph neighbor — or delivers to
/// the receiver. The message travels unchanged — which is precisely why
/// Crowds messages are trivially correlatable.
class crowds_relay final : public message_sink {
 public:
  /// `forward_prob` is the coin's forwarding probability. `topology`, when
  /// non-null, restricts forwarding to graph neighbors (weighted draw); it
  /// must outlive the relay. Null keeps the historical uniform-over-others
  /// draw, bit for bit.
  crowds_relay(node_id self, network& net, double processing_delay,
               double forward_prob, bool compromised,
               adversary_model* monitor, stats::rng gen,
               const net::topology* topology = nullptr);

  void on_message(node_id from, std::uint64_t msg) override;

  [[nodiscard]] node_id id() const noexcept { return self_; }

 private:
  node_id self_;
  network& net_;
  double processing_delay_;
  double forward_prob_;
  bool compromised_;
  adversary_model* monitor_;
  stats::rng gen_;
  const net::topology* topology_;
};

}  // namespace anonpath::sim
