#pragma once

#include <cstdint>
#include <vector>

#include "src/attack/disclosure.hpp"
#include "src/workload/cooccurrence.hpp"

namespace anonpath::attack {

/// The statistical disclosure attack (Danezis's refinement of the
/// Kesdogan–Agrawal disclosure attack): in a target round of m messages one
/// is the target's and m-1 are background, so the expected receiver
/// frequency is (1/m) * delta_partner + ((m-1)/m) * q with q the background
/// law. Estimating q from non-target rounds and subtracting recovers the
/// target's sending distribution — no combinatorial search, so it scales to
/// populations where the exact attack cannot run, at the price of being a
/// statistical estimate with a confidence, not a proof.
class sda_attack final : public disclosure_attack {
 public:
  explicit sda_attack(std::uint32_t receiver_count);

  /// Crisp membership counting (soft weights are the sequential_bayes
  /// refinement; the classic SDA is defined on membership data).
  void observe_round(const round_observation& round) override;

  /// Normalized positive part of signal(); uniform while no target round
  /// (or no positive signal) has been seen. Costs one dense zero-fill, a
  /// scan of the N/64-word support bitmap and O(support) arithmetic: only
  /// receivers with a nonzero target count can carry mass, since every
  /// other receiver's signal is -(m̄−1)·q̂ <= 0 (m̄ >= 1).
  [[nodiscard]] std::vector<double> posterior() const override;

  [[nodiscard]] attack_kind kind() const noexcept override {
    return attack_kind::sda;
  }

  /// Background-subtracted estimate of the target's sending pmf:
  /// m̄·p̂_target − (m̄−1)·q̂ per receiver (may be negative — noise).
  [[nodiscard]] std::vector<double> signal() const;

  /// Per-receiver z-score of the target-round count against the
  /// background-only null (normal approximation with Laplace-smoothed q̂) —
  /// the attack's confidence output. ~N(0,1) for non-partners; grows as
  /// sqrt(target rounds) for the true partner.
  [[nodiscard]] std::vector<double> confidence() const;

  [[nodiscard]] std::uint64_t target_rounds() const noexcept {
    return target_rounds_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return sizeof(*this) + (target_counts_.capacity() +
                            background_counts_.capacity() +
                            support_.capacity()) *
                               sizeof(std::uint64_t);
  }

  /// Seeds an attack from a sharded population accumulation — identical
  /// state to streaming the same rounds through observe_round (the
  /// accumulator's membership rule is the same), so population-scale counts
  /// can be gathered in parallel and scored here. `totals` is treated as
  /// untrusted (merged / replayed / deserialized counts): rows out of the
  /// declared receiver population, non-ascending rows, target counts
  /// exceeding their global complement, target rounds/messages exceeding
  /// the totals, target messages with zero target rounds, and fewer target
  /// messages than target rounds (each target round carries the target's
  /// own message, so m̄ >= 1) all throw
  /// parse_error (source "cooccurrence") instead of underflowing or
  /// dividing by zero downstream. Precondition (trusted caller input):
  /// pair_index < totals.per_pair.size().
  [[nodiscard]] static sda_attack from_counts(
      const workload::cooccurrence_result& totals, std::uint32_t pair_index,
      std::uint32_t receiver_count);

 private:
  /// signal()'s entry for receiver r. Precondition: target_messages_ > 0.
  [[nodiscard]] double signal_at(std::uint32_t r, double mbar) const;

  std::vector<std::uint64_t> target_counts_;      // per receiver, target rounds
  std::vector<std::uint64_t> background_counts_;  // per receiver, other rounds
  std::vector<std::uint64_t> support_;  // bitmap: target_counts_[r] > 0
  std::uint64_t target_rounds_ = 0;
  std::uint64_t target_messages_ = 0;
  std::uint64_t background_rounds_ = 0;
  std::uint64_t background_messages_ = 0;
};

}  // namespace anonpath::attack
