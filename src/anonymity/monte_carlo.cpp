#include "src/anonymity/monte_carlo.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"
#include "src/stats/thread_pool.hpp"

namespace anonpath {

namespace {

constexpr std::uint64_t default_shard_count = 16;

/// One canonicalized observation class with its sample multiplicity.
struct obs_class {
  std::string key;
  observation obs;
  std::uint64_t count = 0;
};

/// Phase 1: sample `count` routes from one rng stream and aggregate them
/// into observation classes, in first-occurrence order — deterministic
/// regardless of the hash table's internal ordering. No posterior work
/// happens here; classes from all shards are merged globally and scored
/// once each.
std::vector<obs_class> collect_shard(std::uint32_t node_count,
                                     const std::vector<bool>& compromised_flags,
                                     const path_length_distribution& lengths,
                                     std::uint64_t count, stats::rng gen) {
  route_sampler sampler(node_count, lengths, path_model::simple);
  observation obs;
  std::string key;
  std::unordered_map<std::string, std::size_t> index;
  std::vector<obs_class> classes;
  for (std::uint64_t i = 0; i < count; ++i) {
    observe_into(sampler.next(gen), compromised_flags, obs);
    obs.key_into(key);
    const auto [it, inserted] = index.try_emplace(key, classes.size());
    if (inserted) {
      classes.push_back({key, obs, 1});  // copies: obs/key are reused buffers
    } else {
      ++classes[it->second].count;
    }
  }
  return classes;
}

}  // namespace

mc_estimate estimate_anonymity_degree(const system_params& sys,
                                      const std::vector<node_id>& compromised,
                                      const path_length_distribution& lengths,
                                      std::uint64_t samples, std::uint64_t seed,
                                      const mc_config& config) {
  ANONPATH_EXPECTS(samples > 0);
  // Validates sys/compromised/lengths; also the template every worker copies
  // so the memo tables are built exactly once.
  const posterior_engine base_engine(sys, compromised, lengths);
  std::vector<bool> flags(sys.node_count, false);
  for (node_id c : compromised) flags[c] = true;

  const std::uint64_t shards = std::min(
      samples, config.shards == 0 ? default_shard_count : config.shards);
  const std::uint64_t per_shard = samples / shards;
  const std::uint64_t remainder = samples % shards;
  const auto shard_samples = [&](std::uint64_t shard) {
    return per_shard + (shard < remainder ? 1 : 0);
  };

  // Worker threads are an implementation resource, not a sampling knob:
  // clamp runaway requests (e.g. a wrapped negative) to a sane ceiling. The
  // pool is sized by the thread request, not the shard count — the sampling
  // phase is naturally bounded by its shard items, while the scoring phase
  // fans out over distinct observation classes, which can far exceed the
  // shards. A pool of size 1 degenerates to inline serial loops.
  constexpr unsigned max_threads = 256;
  const unsigned threads = std::min(
      config.threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                          : config.threads,
      max_threads);
  stats::thread_pool pool(threads);

  mc_estimate out;
  out.samples = samples;
  out.shards = shards;

  // Phase 1: parallel per-shard sampling + local dedup (no posteriors).
  std::vector<std::vector<obs_class>> shard_classes(shards);
  pool.parallel_for(shards, [&](std::uint64_t shard, unsigned) {
    shard_classes[shard] =
        collect_shard(sys.node_count, flags, lengths, shard_samples(shard),
                      stats::rng::stream(seed, shard));
  });

  // Phase 2: serial global merge in shard order — the class list and all
  // downstream arithmetic are independent of the worker schedule.
  std::unordered_map<std::string, std::size_t> global_index;
  std::vector<obs_class> global;
  for (auto& classes : shard_classes) {
    for (auto& cls : classes) {
      const auto [it, inserted] =
          global_index.try_emplace(cls.key, global.size());
      if (inserted) {
        global.push_back(std::move(cls));
      } else {
        global[it->second].count += cls.count;
      }
    }
    classes.clear();
    classes.shrink_to_fit();
  }

  // Phase 3: parallel scoring, one exact posterior per distinct class.
  // Each worker owns a private engine copy: the posterior memo and layout
  // scratch are mutable, so sharing one instance across threads would
  // race. (Memo state affects speed only, never values.)
  std::vector<posterior_engine> engines(pool.worker_count(), base_engine);
  std::vector<double> entropy(global.size());
  pool.parallel_for(global.size(), [&](std::uint64_t i, unsigned worker) {
    entropy[i] =
        entropy_bits(engines[worker].sender_posterior(global[i].obs));
  });

  // Phase 4: weighted reduction in class order.
  stats::running_summary acc;
  for (std::size_t i = 0; i < global.size(); ++i) {
    acc.add_repeated(entropy[i], global[i].count);
  }
  out.distinct_observations = global.size();
  out.degree = acc.mean();
  out.std_error = acc.std_error();
  return out;
}

mc_estimate estimate_anonymity_degree(const system_params& sys,
                                      const std::vector<node_id>& compromised,
                                      const path_length_distribution& lengths,
                                      std::uint64_t samples,
                                      std::uint64_t seed) {
  return estimate_anonymity_degree(sys, compromised, lengths, samples, seed,
                                   mc_config{});
}

}  // namespace anonpath
