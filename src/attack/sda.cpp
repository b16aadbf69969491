#include "src/attack/sda.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/stats/bitmap.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/kahan.hpp"

namespace anonpath::attack {

sda_attack::sda_attack(std::uint32_t receiver_count)
    : disclosure_attack(receiver_count),
      target_counts_(receiver_count, 0),
      background_counts_(receiver_count, 0),
      support_((receiver_count + 63) / 64, 0) {}

void sda_attack::observe_round(const round_observation& round) {
  // Zero deliveries is loss, not evidence (family-wide rule, see
  // intersection_attack): counting such a round would dilute the mean
  // batch size m-bar that the background subtraction scales by.
  if (round.receivers.empty()) return;
  auto& counts = round.target_present ? target_counts_ : background_counts_;
  for (node_id v : round.receivers) {
    ANONPATH_EXPECTS(v < receiver_count_);
    ++counts[v];
  }
  if (round.target_present) {
    for (node_id v : round.receivers) stats::set_bit(support_, v);
    ++target_rounds_;
    target_messages_ += round.receivers.size();
  } else {
    ++background_rounds_;
    background_messages_ += round.receivers.size();
  }
}

double sda_attack::signal_at(std::uint32_t r, double mbar) const {
  const double p_target = static_cast<double>(target_counts_[r]) /
                          static_cast<double>(target_messages_);
  // No background rounds yet: fall back to the uniform prior for q̂ (the
  // subtraction then just recenters; evidence still ranks receivers).
  const double q = background_messages_ > 0
                       ? static_cast<double>(background_counts_[r]) /
                             static_cast<double>(background_messages_)
                       : 1.0 / static_cast<double>(receiver_count_);
  return mbar * p_target - (mbar - 1.0) * q;
}

std::vector<double> sda_attack::signal() const {
  std::vector<double> out(receiver_count_, 0.0);
  if (target_messages_ == 0) return out;
  const double mbar = static_cast<double>(target_messages_) /
                      static_cast<double>(target_rounds_);
  for (std::uint32_t r = 0; r < receiver_count_; ++r)
    out[r] = signal_at(r, mbar);
  return out;
}

std::vector<double> sda_attack::confidence() const {
  std::vector<double> out(receiver_count_, 0.0);
  if (target_messages_ == 0) return out;
  const double n = static_cast<double>(target_messages_);
  for (std::uint32_t r = 0; r < receiver_count_; ++r) {
    // Laplace-smoothed background rate keeps the null variance positive for
    // receivers the background never touched.
    const double q = (static_cast<double>(background_counts_[r]) + 1.0) /
                     (static_cast<double>(background_messages_) +
                      static_cast<double>(receiver_count_));
    const double expected = n * q;
    // The smoothed q can still round to exactly 1.0 when the background is
    // fully concentrated on r at huge counts; the null then has zero
    // variance and no z-score is defined. Degenerate evidence, not NaN: a
    // receiver the null predicts with certainty carries no surprise.
    const double variance = n * q * (1.0 - q);
    out[r] = variance > 0.0
                 ? (static_cast<double>(target_counts_[r]) - expected) /
                       std::sqrt(variance)
                 : 0.0;
  }
  return out;
}

std::vector<double> sda_attack::posterior() const {
  // Off the support the clamped signal is exactly +0.0, and adding +0.0 to
  // the compensated sum is a no-op, so scoring the support alone (in
  // ascending order, like the dense loop) gives the same bits.
  std::vector<double> post(receiver_count_, 0.0);
  stats::kahan_sum z;
  if (target_messages_ > 0) {
    const double mbar = static_cast<double>(target_messages_) /
                        static_cast<double>(target_rounds_);
    stats::for_each_set_bit(support_, [&](std::size_t r) {
      const double p =
          std::max(signal_at(static_cast<std::uint32_t>(r), mbar), 0.0);
      post[r] = p;
      z.add(p);
    });
  }
  if (z.value() <= 0.0) {
    std::fill(post.begin(), post.end(),
              1.0 / static_cast<double>(receiver_count_));
    return post;
  }
  stats::for_each_set_bit(support_,
                          [&](std::size_t r) { post[r] /= z.value(); });
  return post;
}

namespace {

[[noreturn]] void reject_counts(parse_error_kind kind,
                                const std::string& detail) {
  throw parse_error(kind, "cooccurrence", detail);
}

/// Rejects a sparse count row that is not strictly ascending by receiver or
/// that names a receiver outside the declared population.
void check_rows(const workload::receiver_counts& rows,
                std::uint32_t receiver_count, const char* what) {
  const workload::receiver_counts::value_type* prev = nullptr;
  for (const auto& row : rows) {
    if (row.first >= receiver_count)
      reject_counts(parse_error_kind::out_of_range,
                    std::string(what) + " receiver id " +
                        std::to_string(row.first) +
                        " >= receiver population " +
                        std::to_string(receiver_count));
    if (prev != nullptr && prev->first >= row.first)
      reject_counts(parse_error_kind::malformed,
                    std::string(what) +
                        " receiver counts not strictly ascending at id " +
                        std::to_string(row.first));
    prev = &row;
  }
}

}  // namespace

sda_attack sda_attack::from_counts(const workload::cooccurrence_result& totals,
                                   std::uint32_t pair_index,
                                   std::uint32_t receiver_count) {
  ANONPATH_EXPECTS(pair_index < totals.per_pair.size());
  const workload::pair_counts& pc = totals.per_pair[pair_index];
  // `totals` is untrusted — it may be merged, replayed, or deserialized from
  // a corrupt shard — so every complement computed below is validated before
  // the unsigned subtraction that would otherwise underflow, and the
  // m-bar = target_messages / target_rounds divisor is pinned non-zero.
  check_rows(totals.global_receiver_counts, receiver_count, "global");
  check_rows(pc.target_receiver_counts, receiver_count, "target");
  if (pc.target_rounds > totals.rounds)
    reject_counts(parse_error_kind::mismatch,
                  "target rounds " + std::to_string(pc.target_rounds) +
                      " exceed total rounds " + std::to_string(totals.rounds));
  if (pc.target_messages > totals.messages)
    reject_counts(parse_error_kind::mismatch,
                  "target messages " + std::to_string(pc.target_messages) +
                      " exceed total messages " +
                      std::to_string(totals.messages));
  if (pc.target_messages > 0 && pc.target_rounds == 0)
    reject_counts(parse_error_kind::mismatch,
                  std::to_string(pc.target_messages) +
                      " target messages with zero target rounds");
  if (pc.target_messages < pc.target_rounds)
    reject_counts(parse_error_kind::mismatch,
                  std::to_string(pc.target_messages) +
                      " target messages in " +
                      std::to_string(pc.target_rounds) + " target rounds");
  sda_attack out(receiver_count);
  // Background is the exact complement of the target rounds within the
  // global accumulation: one linear pass over both ascending sparse rows,
  // rejecting any target count its global row cannot cover.
  auto t = pc.target_receiver_counts.begin();
  const auto t_end = pc.target_receiver_counts.end();
  for (const auto& [r, c] : totals.global_receiver_counts) {
    if (t != t_end && t->first < r) break;  // reported after the loop
    std::uint64_t tc = 0;
    if (t != t_end && t->first == r) tc = (t++)->second;
    if (tc > c)
      reject_counts(parse_error_kind::mismatch,
                    "target count " + std::to_string(tc) +
                        " exceeds global count " + std::to_string(c) +
                        " for receiver " + std::to_string(r));
    out.target_counts_[r] = tc;
    out.background_counts_[r] = c - tc;
    if (tc > 0) stats::set_bit(out.support_, r);
  }
  if (t != t_end)
    reject_counts(parse_error_kind::mismatch,
                  "target receiver " + std::to_string(t->first) +
                      " absent from the global counts");
  out.target_rounds_ = pc.target_rounds;
  out.target_messages_ = pc.target_messages;
  out.background_rounds_ = totals.rounds - pc.target_rounds;
  out.background_messages_ = totals.messages - pc.target_messages;
  return out;
}

}  // namespace anonpath::attack
