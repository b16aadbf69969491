// Test-only references: the implementations that faster library code
// replaced, kept verbatim so differential tests can pin the new code to
// the old one bit for bit. Each entry names what it is the reference for.
// Header-only; a new perf change adds a function here, not a file.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/anonymity/entropy.hpp"
#include "src/stats/bitmap.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"
#include "src/workload/cooccurrence.hpp"
#include "src/workload/population.hpp"

namespace anonpath::pre_change {

/// Reference for summarize_entropy: the element-at-a-time dense pass.
inline entropy_summary summarize_entropy(
    std::span<const double> probabilities) {
  std::vector<std::uint64_t> nonzero((probabilities.size() + 63) / 64, 0);
  entropy_summary out;
  stats::kahan_sum total;
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    const double p = probabilities[i];
    if (p == 0.0) continue;
    ANONPATH_EXPECTS(p >= 0.0);
    total.add(p);
    stats::set_bit(nonzero, i);
    if (probabilities[out.argmax] < p) out.argmax = i;
  }
  const double z = total.value();
  if (z <= 0.0) return out;
  stats::kahan_sum h;
  stats::for_each_set_bit(nonzero, [&](std::size_t i) {
    const double q = probabilities[i] / z;
    h.add(-q * std::log2(q));
  });
  out.bits = h.value();
  return out;
}

/// Reference for stats::discrete_sampler: Vose's alias method with a
/// `scaled` copy and separate small/large stacks.
class two_stack_vose {
 public:
  explicit two_stack_vose(std::span<const double> weights) {
    ANONPATH_EXPECTS(!weights.empty());
    stats::kahan_sum total;
    for (double w : weights) {
      ANONPATH_EXPECTS(w >= 0.0 && std::isfinite(w));
      total.add(w);
    }
    ANONPATH_EXPECTS(total.value() > 0.0);
    const std::size_t n = weights.size();
    std::vector<double> pmf(n);
    for (std::size_t i = 0; i < n; ++i) pmf[i] = weights[i] / total.value();
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i)
      scaled[i] = pmf[i] * static_cast<double>(n);
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      (scaled[i] < 1.0 ? small : large)
          .push_back(static_cast<std::uint32_t>(i));
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t l : large) prob_[l] = 1.0;
    for (std::uint32_t s : small) prob_[s] = 1.0;
  }

  [[nodiscard]] std::size_t sample(stats::rng& gen) const {
    const auto col = static_cast<std::size_t>(gen.next_below(prob_.size()));
    return gen.next_double() < prob_[col] ? col : alias_[col];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

/// Reference for stats::rng::sample_distinct: partial Fisher-Yates over a
/// pool of every allowed value.
inline std::vector<std::uint32_t> sample_distinct(
    stats::rng& gen, std::uint32_t n, std::uint32_t k,
    const std::vector<std::uint32_t>& exclude) {
  std::vector<std::uint32_t> pool;
  pool.reserve(n);
  std::vector<bool> banned(n, false);
  for (std::uint32_t e : exclude)
    if (e < n) banned[e] = true;
  for (std::uint32_t v = 0; v < n; ++v)
    if (!banned[v]) pool.push_back(v);
  ANONPATH_EXPECTS(k <= pool.size());
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<std::uint32_t>(gen.next_below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

/// Reference for the exact streaming backend: sequential ingestion of
/// rounds [lo, hi) into std::map counts, with the accumulator's membership
/// rule (a round is a target round for pair p iff p's sender is among the
/// round's senders).
inline workload::cooccurrence_result map_cooccurrence(
    const workload::population& pop, std::uint32_t lo, std::uint32_t hi) {
  std::map<node_id, std::uint64_t> global;
  std::vector<std::map<node_id, std::uint64_t>> receivers(pop.pairs().size());
  workload::cooccurrence_result out;
  out.per_pair.resize(pop.pairs().size());
  for (std::uint32_t r = lo; r < hi; ++r) {
    const workload::round_batch batch = pop.round(r);
    ++out.rounds;
    out.messages += batch.senders.size();
    for (node_id v : batch.receivers) ++global[v];
    for (std::size_t p = 0; p < pop.pairs().size(); ++p) {
      if (std::find(batch.senders.begin(), batch.senders.end(),
                    pop.pairs()[p].sender) == batch.senders.end())
        continue;
      ++out.per_pair[p].target_rounds;
      out.per_pair[p].target_messages += batch.senders.size();
      for (node_id v : batch.receivers) ++receivers[p][v];
    }
  }
  out.global_receiver_counts.assign(global.begin(), global.end());
  for (std::size_t p = 0; p < receivers.size(); ++p)
    out.per_pair[p].target_receiver_counts.assign(receivers[p].begin(),
                                                  receivers[p].end());
  return out;
}

}  // namespace anonpath::pre_change
