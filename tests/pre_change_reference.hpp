// Test-only references: the implementations that faster library code
// replaced, kept verbatim so differential tests can pin the new code to
// the old one bit for bit. Each entry names what it is the reference for.
// Header-only; a new perf change adds a function here, not a file.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/net/topology_mc.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/stats/bitmap.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/thread_pool.hpp"
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

/// Reference for sim::event_queue: the closure queue it replaced, a
/// std::priority_queue of std::function actions ordered by (at, seq).
class closure_queue {
 public:
  void schedule_at(double at, std::function<void()> action) {
    ANONPATH_EXPECTS(at >= now_);
    heap_.push(entry{at, seq_++, std::move(action)});
  }
  void schedule_in(double delay, std::function<void()> action) {
    ANONPATH_EXPECTS(delay >= 0.0);
    schedule_at(now_ + delay, std::move(action));
  }
  bool run_next() {
    if (heap_.empty()) return false;
    entry e = heap_.top();
    heap_.pop();
    now_ = e.at;
    ++executed_;
    e.action();
    return true;
  }
  bool run_until_empty(std::uint64_t max_events = 100'000'000) {
    std::uint64_t fired = 0;
    while (run_next()) {
      if (++fired >= max_events && !heap_.empty()) return false;
    }
    return true;
  }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct entry {
    double at;
    std::uint64_t seq;
    std::function<void()> action;
  };
  struct later {
    bool operator()(const entry& a, const entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<entry, std::vector<entry>, later> heap_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// Reference for net::estimate_topology_degree: every shard samples and
/// scores its own walks, memoizing the entropy per observation key within
/// the shard only, so a class seen by k shards pays the DP k times.
inline net::topology_mc_estimate walk_mc_per_shard(
    system_params sys, const std::vector<node_id>& compromised,
    const path_length_distribution& lengths, const net::topology_config& cfg,
    std::uint64_t samples, std::uint64_t seed, unsigned threads = 1,
    std::uint64_t shards = 0) {
  ANONPATH_EXPECTS(samples >= 1);
  if (shards == 0) shards = 64;
  if (shards > samples) shards = samples;

  const net::topology topo = net::topology::make(sys.node_count, cfg);
  const net::topology_posterior_engine engine(sys, compromised, lengths, topo);

  struct shard_acc {
    stats::kahan_sum sum;
    stats::kahan_sum sum_sq;
    std::uint64_t count = 0;
  };
  std::vector<shard_acc> accs(shards);

  std::vector<bool> compromised_flag(sys.node_count, false);
  for (node_id c : compromised) compromised_flag[c] = true;

  stats::parallel_for(threads, shards, [&](std::uint64_t shard, unsigned) {
    stats::rng gen = stats::rng::stream(seed, shard);
    const std::uint64_t begin = shard * samples / shards;
    const std::uint64_t end = (shard + 1) * samples / shards;
    shard_acc& acc = accs[shard];
    observation obs;
    std::vector<double> post;
    route r;
    std::string key;
    std::unordered_map<std::string, double> entropy_memo;
    for (std::uint64_t i = begin; i < end; ++i) {
      r.sender = static_cast<node_id>(gen.next_below(sys.node_count));
      const path_length l = lengths.sample(gen);
      sample_topology_route_into(topo, r.sender, l, gen, r);
      observe_into(r, compromised_flag, obs);
      obs.key_into(key);
      const auto it = entropy_memo.find(key);
      double h;
      if (it != entropy_memo.end()) {
        h = it->second;
      } else {
        const bool ok = engine.try_sender_posterior(obs, post);
        ANONPATH_ENSURES(ok);
        h = entropy_bits(post);
        entropy_memo.emplace(key, h);
      }
      acc.sum.add(h);
      acc.sum_sq.add(h * h);
      ++acc.count;
    }
  });

  stats::kahan_sum sum;
  stats::kahan_sum sum_sq;
  std::uint64_t count = 0;
  for (const shard_acc& acc : accs) {
    sum.add(acc.sum.value());
    sum_sq.add(acc.sum_sq.value());
    count += acc.count;
  }

  net::topology_mc_estimate est;
  est.samples = count;
  est.shards = shards;
  est.degree = sum.value() / static_cast<double>(count);
  if (count > 1) {
    const double var =
        (sum_sq.value() - sum.value() * est.degree) /
        static_cast<double>(count - 1);
    est.std_error = std::sqrt((var > 0.0 ? var : 0.0) /
                              static_cast<double>(count));
  }
  return est;
}

}  // namespace anonpath::pre_change
