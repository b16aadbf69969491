#include "src/net/topology_mc.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/thread_pool.hpp"

namespace anonpath::net {

namespace {

/// Draws samples [begin, end) of one shard's stream — (sender, length,
/// walk) triples of the generative model — and hands each one's adversary
/// observation and its key to `visit`, in sample order. The same shard
/// always yields the same sequence.
template <class Visit>
void walk_shard(const topology& topo, const path_length_distribution& lengths,
                const std::vector<bool>& compromised_flag, std::uint64_t seed,
                std::uint64_t shard, std::uint64_t begin, std::uint64_t end,
                Visit&& visit) {
  stats::rng gen = stats::rng::stream(seed, shard);
  observation obs;
  route r;
  std::string key;
  for (std::uint64_t i = begin; i < end; ++i) {
    r.sender = static_cast<node_id>(gen.next_below(topo.node_count()));
    const path_length l = lengths.sample(gen);
    sample_topology_route_into(topo, r.sender, l, gen, r);
    observe_into(r, compromised_flag, obs);
    obs.key_into(key);
    visit(key, obs);
  }
}

}  // namespace

topology_mc_estimate estimate_topology_degree(
    system_params sys, const std::vector<node_id>& compromised,
    const path_length_distribution& lengths, const topology_config& cfg,
    std::uint64_t samples, std::uint64_t seed, unsigned threads,
    std::uint64_t shards) {
  ANONPATH_EXPECTS(samples >= 1);
  if (shards == 0) shards = 64;
  if (shards > samples) shards = samples;

  const topology topo = topology::make(sys.node_count, cfg);
  // One shared engine: sender scoring is const and allocation-local, so
  // every worker can use it concurrently.
  const topology_posterior_engine engine(sys, compromised, lengths, topo);

  std::vector<bool> compromised_flag(sys.node_count, false);
  for (node_id c : compromised) compromised_flag[c] = true;
  const auto shard_range = [&](std::uint64_t shard) {
    return std::pair{shard * samples / shards, (shard + 1) * samples / shards};
  };
  stats::thread_pool pool(static_cast<unsigned>(
      std::min<std::uint64_t>(stats::resolve_thread_count(threads), shards)));

  // Sampled walks collapse onto few distinct observation classes (about 5k
  // of the 80k in a study_grid pass), and the posterior entropy is a pure
  // function of the class. So: (1) each shard samples and keeps one
  // observation per distinct class; (2) a serial merge numbers the classes
  // globally; (3) the transfer-matrix DP runs once per global class, in
  // parallel; (4) each shard redraws its stream and sums the entropies of
  // its samples in sample order. Every sample sees the value a per-sample
  // DP would give, and every sum runs in the same order, so the estimate
  // is bit-identical for any thread count and to a per-shard memo.
  struct shard_classes {
    std::unordered_map<std::string, std::size_t> index;
    std::vector<observation> first;
  };
  std::vector<shard_classes> local(shards);
  pool.parallel_for(shards, [&](std::uint64_t shard, unsigned) {
    shard_classes& mine = local[shard];
    const auto [begin, end] = shard_range(shard);
    walk_shard(topo, lengths, compromised_flag, seed, shard, begin, end,
               [&](const std::string& key, const observation& obs) {
                 if (mine.index.try_emplace(key, mine.first.size()).second)
                   mine.first.push_back(obs);
               });
  });

  // Class numbering is immaterial (an entropy depends only on its key), so
  // the merge may walk each shard's table in any order. Its keys view the
  // shard tables' own (node-stable) strings.
  std::unordered_map<std::string_view, std::size_t> global;
  std::vector<const observation*> classes;
  for (const shard_classes& mine : local)
    for (const auto& [key, at] : mine.index)
      if (global.try_emplace(key, classes.size()).second)
        classes.push_back(&mine.first[at]);

  std::vector<double> entropy(classes.size());
  pool.parallel_for(classes.size(), [&](std::uint64_t c, unsigned) {
    std::vector<double> post;
    const bool ok = engine.try_sender_posterior(*classes[c], post);
    ANONPATH_ENSURES(ok);  // model-generated observations always explain
    entropy[c] = entropy_bits(post);
  });

  struct shard_acc {
    stats::kahan_sum sum;
    stats::kahan_sum sum_sq;
    std::uint64_t count = 0;
  };
  std::vector<shard_acc> accs(shards);
  pool.parallel_for(shards, [&](std::uint64_t shard, unsigned) {
    shard_acc& acc = accs[shard];
    const auto [begin, end] = shard_range(shard);
    walk_shard(topo, lengths, compromised_flag, seed, shard, begin, end,
               [&](const std::string& key, const observation&) {
                 const double h = entropy[global.find(key)->second];
                 acc.sum.add(h);
                 acc.sum_sq.add(h * h);
                 ++acc.count;
               });
  });

  // Reduce in shard order: bit-identical for any thread count.
  stats::kahan_sum sum;
  stats::kahan_sum sum_sq;
  std::uint64_t count = 0;
  for (const shard_acc& acc : accs) {
    sum.add(acc.sum.value());
    sum_sq.add(acc.sum_sq.value());
    count += acc.count;
  }

  topology_mc_estimate est;
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

}  // namespace anonpath::net
