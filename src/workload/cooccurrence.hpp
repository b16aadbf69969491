#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/workload/population.hpp"

namespace anonpath::workload {

/// Sharded, thread-invariant streaming co-occurrence accumulation: the
/// counting half of every disclosure attack, runnable at population scale
/// (1e5 users x 1e4 rounds) without ever materializing the round stream.
/// Rounds are partitioned into `shard_count` contiguous shards (a fixed
/// count, independent of the thread count) that are only the scheduling
/// grain: shards fan out over a stats::thread_pool, each worker thread
/// ingests the shards it claims into its own accumulator, reading
/// population::round(i) (itself a pure function of (seed, i) via
/// rng::stream), and the per-worker states merge on the calling thread.
/// Counts are integers and every merge is order-free, so the result is
/// bit-identical for every thread and shard count — the same contract as
/// mc_config and campaign_config.
struct cooccurrence_config {
  unsigned threads = 1;          ///< worker threads; 0 = hardware concurrency
  std::uint32_t shard_count = 0; ///< scheduling grain; 0 = min(rounds, 256)
};

/// Sparse (receiver, count) rows, ascending by receiver id.
using receiver_counts = std::vector<std::pair<node_id, std::uint64_t>>;

/// Longitudinal counts for one tracked pair. "Target rounds" are the rounds
/// whose *sender multiset* contains the pair's sender — the adversary's
/// membership view of a batching mix (it sees who submitted into a round,
/// never the bijection), so a coincidental background message from the same
/// user also marks the round.
struct pair_counts {
  std::uint64_t target_rounds = 0;
  std::uint64_t target_messages = 0;  ///< total messages in target rounds
  receiver_counts target_receiver_counts;

  friend bool operator==(const pair_counts&, const pair_counts&) = default;
};

/// The full accumulation: global receiver frequencies (every round) plus
/// per-pair target-round counts. Background counts for pair p are exact
/// differences: background_messages = messages - target_messages, and
/// per-receiver background = receiver_counts - target_receiver_counts.
struct cooccurrence_result {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  receiver_counts global_receiver_counts;
  std::vector<pair_counts> per_pair;  ///< one per population::pairs() entry

  friend bool operator==(const cooccurrence_result&,
                         const cooccurrence_result&) = default;
};

/// Streams every round of `pop` through the sharded accumulator. See
/// cooccurrence_config for the determinism contract. A zero-round
/// population yields an empty (per_pair-sized) result. Implemented on the
/// exact streaming_accumulator backend (src/workload/streaming.hpp).
[[nodiscard]] cooccurrence_result accumulate_cooccurrence(
    const population& pop, const cooccurrence_config& cfg = {});

}  // namespace anonpath::workload
