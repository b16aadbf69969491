// Test-only references: the implementations that faster library code
// replaced, kept verbatim so differential tests can pin the new code to
// the old one bit for bit. Each entry names what it is the reference for.
// Header-only; a new perf change adds a function here, not a file.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/monte_carlo.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/net/topology_mc.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/correlation.hpp"
#include "src/stats/bitmap.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"
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

/// Reference for net::topology's counting-sort CSR builder: the per-node
/// vector storage it replaced. Every edge is appended to both endpoints'
/// lists in edge-list order; each list is then sorted through an index
/// permutation and gets its cumulative weights, total and the per-node
/// uniform-weight test.
class vector_topology {
 public:
  vector_topology(std::uint32_t n, const net::topology_config& cfg)
      : adj_(n), weights_(n), cum_(n), total_(n, 0.0) {
    for (const net::weighted_edge& e : net::generate_edges(n, cfg)) {
      adj_[e.u].push_back(e.v);
      weights_[e.u].push_back(e.w);
      adj_[e.v].push_back(e.u);
      weights_[e.v].push_back(e.w);
    }
    min_degree_ = ~0u;
    std::uint64_t directed = 0;
    for (node_id u = 0; u < n; ++u) {
      std::vector<std::size_t> order(adj_[u].size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return adj_[u][a] < adj_[u][b];
                });
      std::vector<node_id> nbr(adj_[u].size());
      std::vector<double> w(adj_[u].size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        nbr[i] = adj_[u][order[i]];
        w[i] = weights_[u][order[i]];
      }
      adj_[u] = std::move(nbr);
      weights_[u] = std::move(w);
      cum_[u].resize(adj_[u].size());
      double acc = 0.0;
      for (std::size_t i = 0; i < adj_[u].size(); ++i) {
        ANONPATH_EXPECTS(adj_[u][i] != u);
        ANONPATH_EXPECTS(i == 0 || adj_[u][i] != adj_[u][i - 1]);
        ANONPATH_EXPECTS(weights_[u][i] > 0.0);
        acc += weights_[u][i];
        cum_[u][i] = acc;
        if (uniform_weights_ && weights_[u][i] != weights_[u][0])
          uniform_weights_ = false;
      }
      total_[u] = acc;
      const auto deg = static_cast<std::uint32_t>(adj_[u].size());
      directed += deg;
      min_degree_ = std::min(min_degree_, deg);
      max_degree_ = std::max(max_degree_, deg);
    }
    edge_count_ = directed / 2;
  }

  [[nodiscard]] net::neighbor_view adjacency(node_id u) const {
    return {adj_[u].data(), weights_[u].data(), cum_[u].data(),
            static_cast<std::uint32_t>(adj_[u].size())};
  }
  [[nodiscard]] std::uint32_t degree(node_id u) const {
    return static_cast<std::uint32_t>(adj_[u].size());
  }
  [[nodiscard]] double total_weight(node_id u) const { return total_[u]; }
  [[nodiscard]] std::uint64_t edge_count() const { return edge_count_; }
  [[nodiscard]] std::uint32_t min_degree() const { return min_degree_; }
  [[nodiscard]] std::uint32_t max_degree() const { return max_degree_; }

  [[nodiscard]] node_id sample_neighbor(node_id u, stats::rng& gen) const {
    const net::neighbor_view a = adjacency(u);
    if (uniform_weights_)
      return a.ids[static_cast<std::size_t>(gen.next_below(a.size))];
    const double x = gen.next_double() * total_[u];
    auto idx = static_cast<std::size_t>(
        std::upper_bound(a.cum, a.cum + a.size, x) - a.cum);
    if (idx >= a.size) idx = a.size - 1;
    return a.ids[idx];
  }

  /// Full Dijkstra tree under net::edge_cost, settling equal distances in
  /// ascending node order (net::dijkstra's heap order).
  [[nodiscard]] net::shortest_path_tree dijkstra(node_id source) const {
    const auto n = static_cast<std::uint32_t>(adj_.size());
    net::shortest_path_tree tree;
    tree.source = source;
    tree.dist.assign(n, std::numeric_limits<double>::infinity());
    tree.parent.assign(n, net::no_vertex);
    std::vector<char> settled(n, 0);
    using item = std::pair<double, node_id>;
    std::priority_queue<item, std::vector<item>, std::greater<item>> pq;
    tree.dist[source] = 0.0;
    pq.push({0.0, source});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (settled[u]) continue;
      settled[u] = 1;
      for (std::size_t i = 0; i < adj_[u].size(); ++i) {
        const node_id v = adj_[u][i];
        if (settled[v]) continue;
        const double nd = d + net::edge_cost(weights_[u][i]);
        if (nd < tree.dist[v]) {
          tree.dist[v] = nd;
          tree.parent[v] = u;
          pq.push({nd, v});
        }
      }
    }
    return tree;
  }

 private:
  std::vector<std::vector<node_id>> adj_;
  std::vector<std::vector<double>> weights_;
  std::vector<std::vector<double>> cum_;
  std::vector<double> total_;
  bool uniform_weights_ = true;
  std::uint32_t min_degree_ = 0;
  std::uint32_t max_degree_ = 0;
  std::uint64_t edge_count_ = 0;
};

/// Reference for estimate_anonymity_degree's observation classes: every
/// sampled route scored on its own into one running summary per shard,
/// the summaries merged in shard order.
inline mc_estimate mc_per_sample(const system_params& sys,
                                 const std::vector<node_id>& compromised,
                                 const path_length_distribution& lengths,
                                 std::uint64_t samples, std::uint64_t seed,
                                 std::uint64_t shards = 16) {
  const posterior_engine engine(sys, compromised, lengths);
  std::vector<bool> flags(sys.node_count, false);
  for (node_id c : compromised) flags[c] = true;
  shards = std::min(samples, shards);
  stats::running_summary acc;
  for (std::uint64_t shard = 0; shard < shards; ++shard) {
    const std::uint64_t count =
        samples / shards + (shard < samples % shards ? 1 : 0);
    stats::rng gen = stats::rng::stream(seed, shard);
    route_sampler sampler(sys.node_count, lengths, path_model::simple);
    observation obs;
    stats::running_summary summary;
    for (std::uint64_t i = 0; i < count; ++i) {
      observe_into(sampler.next(gen), flags, obs);
      summary.add(entropy_bits(engine.sender_posterior(obs)));
    }
    acc.merge(summary);
  }
  mc_estimate out;
  out.samples = samples;
  out.shards = shards;
  out.distinct_observations = samples;
  out.degree = acc.mean();
  out.std_error = acc.std_error();
  return out;
}

/// Reference for net::topology_posterior_engine's flat arc kernel:
/// try_sender_posterior with the honest-interior step walking the
/// topology's adjacency lists, as it did before the flat arc kernel: the
/// honest/support test per arc, the weight division per arc on the
/// transpose, and one vector per gs row.
class reference_walk_engine {
 public:
  reference_walk_engine(system_params sys, const std::vector<node_id>& comp,
                        path_length_distribution lengths,
                        const net::topology& topo, std::vector<bool> support)
      : sys_(sys), lengths_(std::move(lengths)), topo_(topo) {
    compromised_flag_.assign(sys_.node_count, false);
    for (node_id c : comp) compromised_flag_[c] = true;
    honest_interior_.assign(sys_.node_count, false);
    for (node_id x = 0; x < sys_.node_count; ++x)
      honest_interior_[x] =
          !compromised_flag_[x] && (support.empty() || support[x]);
  }

  void honest_step(const std::vector<double>& in, std::vector<double>& out,
                   bool forward) const {
    out.assign(in.size(), 0.0);
    for (node_id x = 0; x < in.size(); ++x) {
      if (in[x] == 0.0) continue;
      const net::neighbor_view a = topo_.adjacency(x);
      if (forward) {
        const double inv = in[x] / topo_.total_weight(x);
        for (std::uint32_t i = 0; i < a.size; ++i)
          if (honest_interior_[a.ids[i]]) out[a.ids[i]] += inv * a.weights[i];
      } else {
        if (!honest_interior_[x]) continue;
        for (std::uint32_t i = 0; i < a.size; ++i) {
          const node_id y = a.ids[i];
          out[y] += in[x] * (a.weights[i] / topo_.total_weight(y));
        }
      }
    }
  }

  bool try_sender_posterior(const observation& obs,
                            std::vector<double>& out) const {
    const auto n = sys_.node_count;
    out.assign(n, 0.0);
    if (obs.origin) {
      if (*obs.origin >= n) return false;
      out[*obs.origin] = 1.0;
      return true;
    }
    std::vector<path_fragment> fragments;
    try {
      fragments = assemble_fragments(obs, compromised_flag_);
    } catch (const std::invalid_argument&) {
      return false;
    }
    for (const auto& f : fragments)
      for (node_id x : f.nodes)
        if (x != receiver_node && x >= n) return false;
    const bool pinned =
        !fragments.empty() && fragments.back().nodes.back() == receiver_node;
    const bool v_known = obs.receiver_observed;
    const node_id v = obs.receiver_predecessor;
    for (std::size_t f = 0; f < fragments.size(); ++f)
      for (std::size_t i = 0; i < fragments[f].nodes.size(); ++i)
        if (fragments[f].nodes[i] == receiver_node &&
            !(f + 1 == fragments.size() && i + 1 == fragments[f].nodes.size()))
          return false;
    if (v_known) {
      if (pinned) {
        const auto& last = fragments.back().nodes;
        if (last.size() < 2 || last[last.size() - 2] != v) return false;
      } else if (v >= n || compromised_flag_[v]) {
        return false;
      }
    } else if (fragments.empty()) {
      return false;
    }
    for (const auto& f : fragments)
      for (std::size_t i = 0; i + 1 < f.nodes.size(); ++i) {
        if (f.nodes[i + 1] == receiver_node) continue;
        if (topo_.transition_prob(f.nodes[i], f.nodes[i + 1]) <= 0.0)
          return false;
      }

    struct block {
      node_id first;
      node_id last;
      std::size_t span;
    };
    std::vector<block> blocks;
    blocks.push_back(block{0, 0, 1});
    for (const auto& f : fragments)
      blocks.push_back(block{f.nodes.front(), f.nodes.back(), f.nodes.size()});
    const bool open = !pinned && !v_known;
    if (!pinned && v_known) blocks.push_back(block{v, receiver_node, 2});
    std::size_t intra = 0;
    for (const block& b : blocks) intra += b.span - 1;
    const path_length max_l = lengths_.max_length();
    const std::size_t dmax = static_cast<std::size_t>(max_l) + 1;

    std::vector<double> rest(dmax + 1, 0.0);
    rest[0] = 1.0;
    std::vector<double> cur, next, series, conv;
    const auto fold_into_rest = [&] {
      conv.assign(dmax + 1, 0.0);
      for (std::size_t t = 0; t <= dmax; ++t) {
        if (rest[t] == 0.0) continue;
        for (std::size_t u = 0; t + u <= dmax; ++u)
          conv[t + u] += rest[t] * series[u];
      }
      rest.swap(conv);
    };
    for (std::size_t j = 1; j + 1 < blocks.size(); ++j) {
      const node_id a = blocks[j].last;
      const node_id b = blocks[j + 1].first;
      series.assign(dmax + 1, 0.0);
      series[0] = (a == b) ? 1.0 : 0.0;
      cur.assign(n, 0.0);
      cur[a] = 1.0;
      for (std::size_t t = 1; t <= dmax; ++t) {
        honest_step(cur, next, /*forward=*/true);
        cur.swap(next);
        series[t] = b < n ? cur[b] : 0.0;
      }
      fold_into_rest();
    }
    if (open) {
      const node_id a = blocks.back().last;
      series.assign(dmax + 1, 0.0);
      series[0] = 1.0;
      cur.assign(n, 0.0);
      cur[a] = 1.0;
      for (std::size_t t = 1; t <= dmax; ++t) {
        honest_step(cur, next, /*forward=*/true);
        cur.swap(next);
        double sum = 0.0;
        for (double x : cur) sum += x;
        series[t] = sum;
      }
      fold_into_rest();
    }

    const node_id b1 = blocks[1].first;
    std::vector<std::vector<double>> gs(dmax + 1, std::vector<double>(n, 0.0));
    if (b1 < n) gs[0][b1] = 1.0;
    if (b1 < n && !compromised_flag_[b1]) {
      cur.assign(n, 0.0);
      cur[b1] = 1.0;
      for (std::size_t t = 1; t <= dmax; ++t) {
        honest_step(cur, next, /*forward=*/false);
        cur.swap(next);
        gs[t] = cur;
      }
    }
    std::vector<double> coeff(dmax + 1, 0.0);
    for (path_length l = lengths_.min_length(); l <= max_l; ++l) {
      const double pl = lengths_.pmf(l);
      if (pl <= 0.0) continue;
      const long long budget = static_cast<long long>(l) + (open ? 0 : 1) -
                               static_cast<long long>(intra);
      if (budget < 0) continue;
      const auto d = static_cast<std::size_t>(budget);
      for (std::size_t t = 0; t <= d && t <= dmax; ++t)
        if (rest[d - t] != 0.0) coeff[t] += pl * rest[d - t];
    }
    double z = 0.0;
    for (node_id s = 0; s < n; ++s) {
      if (compromised_flag_[s]) continue;
      double acc = 0.0;
      for (std::size_t t = 0; t <= dmax; ++t)
        if (coeff[t] != 0.0) acc += coeff[t] * gs[t][s];
      out[s] = acc;
      z += acc;
    }
    if (!(z > 0.0) || !std::isfinite(z)) {
      out.assign(n, 0.0);
      return false;
    }
    for (node_id s = 0; s < n; ++s) out[s] /= z;
    return true;
  }

 private:
  system_params sys_;
  std::vector<bool> compromised_flag_;
  std::vector<bool> honest_interior_;
  path_length_distribution lengths_;
  const net::topology& topo_;
};

/// Reference for the sparse SDA posteriors (sda_attack::posterior and
/// sketch_sda_attack::posterior), the dense passes they replaced.
/// The dense normalization both SDA engines ran over the whole population
/// before they scored only their support: clamp at 0, compensated sum,
/// divide; uniform when nothing is positive.
std::vector<double> normalize_dense(std::vector<double> post) {
  stats::kahan_sum z;
  for (double& p : post) {
    if (p < 0.0) p = 0.0;
    z.add(p);
  }
  if (z.value() <= 0.0) {
    const double u = 1.0 / static_cast<double>(post.size());
    for (double& p : post) p = u;
    return post;
  }
  for (double& p : post) p /= z.value();
  return post;
}

std::vector<double> dense_sda_posterior(const attack::sda_attack& atk) {
  return normalize_dense(atk.signal());
}

/// What the test knows of the stream it fed a sketch engine.
struct stream_totals {
  std::uint64_t target_rounds = 0;
  std::uint64_t target_messages = 0;
  std::uint64_t messages = 0;

  void add(const attack::round_observation& obs) {
    if (obs.receivers.empty()) return;
    messages += obs.receivers.size();
    if (!obs.target_present) return;
    ++target_rounds;
    target_messages += obs.receivers.size();
  }
};

/// sketch_sda_attack's pre-sparse posterior: the candidate-restricted
/// signal written into a dense vector, then the dense normalization.
std::vector<double> dense_sketch_posterior(
    const attack::sketch_sda_attack& atk, const stream_totals& t) {
  std::vector<double> signal(atk.receiver_count(), 0.0);
  if (t.target_messages > 0) {
    const std::uint64_t bm = t.messages - t.target_messages;
    const double mbar = static_cast<double>(t.target_messages) /
                        static_cast<double>(t.target_rounds);
    for (node_id v : atk.candidates()) {
      const std::uint64_t tc = atk.estimate_target(v);
      const std::uint64_t gc = atk.estimate_global(v);
      const std::uint64_t bc = std::min(gc > tc ? gc - tc : 0, bm);
      const double p_target = static_cast<double>(tc) /
                              static_cast<double>(t.target_messages);
      const double q = bm > 0 ? static_cast<double>(bc) /
                                    static_cast<double>(bm)
                              : 1.0 / static_cast<double>(atk.receiver_count());
      signal[v] = mbar * p_target - (mbar - 1.0) * q;
    }
  }
  return normalize_dense(std::move(signal));
}

/// Reference for sim::adversary_view's timing correlator: the linker that
/// scanned every capture for every link step and cleared an N-length
/// in-chain mask per delivery. Returns the linked observation per
/// delivered message id (the first receipt of an id wins); ids without a
/// receipt stay disengaged. Origin events are discarded, as there.
inline std::vector<std::optional<observation>> timing_link(
    const std::vector<bool>& compromised_, const sim::latency_params& link_,
    const std::vector<sim::adversary_event>& events) {
  struct capture {
    sim::sim_time at = 0.0;
    node_id reporter = 0;
    node_id predecessor = 0;
    node_id successor = 0;
  };
  struct receipt {
    sim::sim_time at = 0.0;
    node_id predecessor = 0;
    std::uint64_t msg = 0;
  };
  std::vector<capture> captures_;
  std::vector<receipt> receipts_;
  for (const sim::adversary_event& e : events) {
    if (e.type == sim::adversary_event::kind::relay)
      captures_.push_back(capture{e.at, e.reporter, e.predecessor, e.successor});
    else if (e.type == sim::adversary_event::kind::receipt)
      receipts_.push_back(receipt{e.at, e.predecessor, e.msg});
  }
  std::vector<std::optional<observation>> assembled_;

  // One forwarding step = relay processing + one link traversal.
  const double lo = link_.processing + link_.base;
  const double hi = lo + link_.jitter;

  std::vector<bool> used(captures_.size(), false);

  std::vector<std::size_t> order(receipts_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (receipts_[a].at != receipts_[b].at)
                       return receipts_[a].at < receipts_[b].at;
                     return receipts_[a].msg < receipts_[b].msg;
                   });

  std::vector<bool> in_chain(compromised_.size(), false);
  for (const std::size_t ri : order) {
    const receipt& r = receipts_[ri];
    std::vector<std::size_t> chain;  // backwards: delivery-adjacent first

    // Seed: the capture whose reporter handed the message to R.
    std::fill(in_chain.begin(), in_chain.end(), false);
    node_id want_reporter = r.predecessor;
    node_id want_successor = receiver_node;
    sim::sim_time later_at = r.at;
    for (;;) {
      double best_score = 0.0;
      std::size_t best = captures_.size();
      for (std::size_t ci = 0; ci < captures_.size(); ++ci) {
        if (used[ci]) continue;
        const capture& c = captures_[ci];
        if (c.reporter != want_reporter || c.successor != want_successor)
          continue;
        if (in_chain[c.reporter] ||
            (c.predecessor < in_chain.size() && in_chain[c.predecessor]))
          continue;
        const double score =
            sim::timing_correlation(c.at, later_at, lo, hi);
        if (score > best_score) {
          best_score = score;
          best = ci;
        }
      }
      if (best == captures_.size()) break;
      used[best] = true;
      chain.push_back(best);
      const capture& c = captures_[best];
      in_chain[c.reporter] = true;
      want_reporter = c.predecessor;
      want_successor = c.reporter;
      later_at = c.at;
      if (want_reporter >= compromised_.size() ||
          !compromised_[want_reporter])
        break;  // the next hop back is honest: nothing more to link
    }

    observation obs;
    obs.gapped = true;
    obs.receiver_predecessor = r.predecessor;
    obs.reports.reserve(chain.size());
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const capture& c = captures_[*it];
      obs.reports.push_back(hop_report{c.reporter, c.predecessor, c.successor});
    }
    if (r.msg >= assembled_.size()) assembled_.resize(r.msg + 1);
    if (!assembled_[r.msg]) assembled_[r.msg] = std::move(obs);
  }
  return assembled_;
}

}  // namespace anonpath::pre_change
