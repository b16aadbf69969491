// Streaming online disclosure inference: the incremental accumulator (exact
// and sketch backends) with its merge/shard invariance, the online_attack
// session's bit-identity with offline post-processing, the sketched SDA's
// conformance bounds and memory sublinearity, and the hardened
// sda_attack::from_counts / confidence() regressions.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/attack/disclosure.hpp"
#include "src/attack/online.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/kahan.hpp"
#include "src/anonymity/entropy.hpp"
#include "src/workload/cooccurrence.hpp"
#include "src/workload/population.hpp"
#include "src/workload/sketch.hpp"
#include "src/workload/streaming.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath {
namespace {

workload::population_config stream_config() {
  workload::population_config cfg;
  cfg.seed = 21;
  cfg.user_count = 300;
  cfg.receiver_count = 200;
  cfg.round_count = 80;
  cfg.persistent_pairs = 2;
  cfg.persistent_rate = 0.7;
  cfg.round_size = 8;
  return cfg;
}

/// The adversary's view of round r for the tracked pair, exactly as
/// run_workload_attack derives it.
attack::round_observation observe(const workload::population& pop,
                                  std::uint32_t pair_index, std::uint32_t r) {
  const workload::round_batch batch = pop.round(r);
  const node_id target = pop.pairs()[pair_index].sender;
  attack::round_observation obs;
  obs.target_present =
      std::find(batch.senders.begin(), batch.senders.end(), target) !=
      batch.senders.end();
  obs.receivers = batch.receivers;
  return obs;
}

TEST(StreamBackend, LabelsRoundTrip) {
  for (const workload::stream_backend b :
       {workload::stream_backend::exact, workload::stream_backend::sketch}) {
    const auto parsed =
        workload::parse_stream_backend(workload::stream_backend_label(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(workload::parse_stream_backend("dense").has_value());
}

TEST(StreamingAccumulator, ZeroRoundPopulationIsAnEmptyAccumulationNotAnAbort) {
  // Regression: accumulate_cooccurrence used to hit a contract abort on
  // round_count == 0; empty streams are first-class now.
  workload::population_config cfg = stream_config();
  cfg.round_count = 0;
  EXPECT_TRUE(cfg.valid());
  const workload::population pop(cfg);
  const workload::cooccurrence_result acc =
      workload::accumulate_cooccurrence(pop, {});
  EXPECT_EQ(acc.rounds, 0u);
  EXPECT_EQ(acc.messages, 0u);
  EXPECT_TRUE(acc.global_receiver_counts.empty());
  ASSERT_EQ(acc.per_pair.size(), pop.pairs().size());
  for (const workload::pair_counts& pc : acc.per_pair) {
    EXPECT_EQ(pc.target_rounds, 0u);
    EXPECT_TRUE(pc.target_receiver_counts.empty());
  }
  // The posterior over empty counts is the uniform prior, not a crash.
  const attack::sda_attack atk =
      attack::sda_attack::from_counts(acc, 0, cfg.receiver_count);
  for (double p : atk.posterior())
    EXPECT_DOUBLE_EQ(p, 1.0 / cfg.receiver_count);
}

TEST(StreamingAccumulator, PartialRangesComposeToTheFullAccumulation) {
  const workload::population pop(stream_config());
  const workload::cooccurrence_result reference =
      workload::accumulate_cooccurrence(pop, {});

  // Empty range: a first-class empty accumulator.
  const workload::streaming_accumulator empty =
      workload::accumulate_streaming(pop, 37, 37);
  EXPECT_EQ(empty.rounds(), 0u);
  EXPECT_EQ(empty.messages(), 0u);

  // Uneven disjoint ranges merged in order reproduce the full accumulation.
  std::vector<node_id> senders;
  for (const workload::persistent_pair& p : pop.pairs())
    senders.push_back(p.sender);
  workload::streaming_accumulator merged(senders);
  for (const auto& [lo, hi] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 13}, {13, 13}, {13, 47}, {47, 80}})
    merged.merge(workload::accumulate_streaming(pop, lo, hi));
  EXPECT_EQ(merged.totals(), reference);

  // Sequential one-round ingestion is the same accumulation again.
  workload::streaming_accumulator sequential(senders);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
    sequential.ingest(pop.round(r));
  EXPECT_EQ(sequential.totals(), reference);
}

TEST(StreamingAccumulator, ThreadAndShardInvarianceBothBackends) {
  const workload::population pop(stream_config());
  const workload::cooccurrence_result exact_reference =
      workload::accumulate_cooccurrence(pop, {});
  const std::size_t exact_reference_bytes =
      workload::accumulate_streaming(pop, 0, pop.config().round_count)
          .memory_bytes();
  workload::streaming_config sketch_cfg;
  sketch_cfg.backend = workload::stream_backend::sketch;
  const workload::streaming_accumulator sketch_reference =
      workload::accumulate_streaming(pop, 0, pop.config().round_count,
                                     sketch_cfg);
  for (const unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
    for (const std::uint32_t shards : {0u, 3u, 17u, 256u}) {
      workload::cooccurrence_config ccfg;
      ccfg.threads = threads;
      ccfg.shard_count = shards;
      const workload::streaming_accumulator ex =
          workload::accumulate_streaming(pop, 0, pop.config().round_count,
                                         {}, ccfg);
      EXPECT_EQ(ex.totals(), exact_reference)
          << "exact threads=" << threads << " shards=" << shards;
      EXPECT_EQ(ex.memory_bytes(), exact_reference_bytes)
          << "exact threads=" << threads << " shards=" << shards;
      const workload::streaming_accumulator sk =
          workload::accumulate_streaming(pop, 0, pop.config().round_count,
                                         sketch_cfg, ccfg);
      EXPECT_EQ(sk.global_sketch(), sketch_reference.global_sketch())
          << "sketch threads=" << threads << " shards=" << shards;
      for (std::uint32_t p = 0; p < pop.pairs().size(); ++p) {
        EXPECT_EQ(sk.target_sketch(p), sketch_reference.target_sketch(p));
        EXPECT_EQ(sk.candidate_sample(p).keys(),
                  sketch_reference.candidate_sample(p).keys())
            << "pair " << p << " threads=" << threads
            << " shards=" << shards;
        EXPECT_EQ(sk.candidates_saturated(p),
                  sketch_reference.candidates_saturated(p))
            << "pair " << p << " threads=" << threads
            << " shards=" << shards;
      }
    }
  }
}

TEST(StreamingAccumulator, FlatRowsMatchTheMapReference) {
  // Enough distinct receivers and deliveries that the pending buffer folds
  // many times, both inside the sharded driver and on sequential ingestion.
  workload::population_config cfg = stream_config();
  cfg.receiver_count = 50000;
  cfg.round_count = 900;
  cfg.round_size = 24;
  cfg.persistent_pairs = 3;
  cfg.receiver_law = {workload::popularity_kind::zipf, 0.8};
  const workload::population pop(cfg);
  const workload::cooccurrence_result reference =
      pre_change::map_cooccurrence(pop, 0, cfg.round_count);
  EXPECT_GT(reference.global_receiver_counts.size(), 2048u);
  for (const unsigned threads : {1u, 3u}) {
    workload::cooccurrence_config ccfg;
    ccfg.threads = threads;
    EXPECT_EQ(workload::accumulate_cooccurrence(pop, ccfg), reference)
        << "threads=" << threads;
  }
  std::vector<node_id> senders;
  for (const workload::persistent_pair& p : pop.pairs())
    senders.push_back(p.sender);
  // Unfolded deliveries count in totals() and in merges from either side.
  workload::streaming_accumulator sequential(senders);
  workload::streaming_accumulator tail(senders);
  for (std::uint32_t r = 0; r < cfg.round_count; ++r)
    (r < 700 ? sequential : tail).ingest(pop.round(r));
  EXPECT_EQ(sequential.totals(), pre_change::map_cooccurrence(pop, 0, 700));
  workload::streaming_accumulator forward = sequential;
  forward.merge(tail);
  EXPECT_EQ(forward.totals(), reference);
  tail.merge(sequential);
  EXPECT_EQ(tail.totals(), reference);
  EXPECT_EQ(forward.memory_bytes(), tail.memory_bytes());
}

TEST(OnlineAttack, SnapshotMatchesADirectEngineAtEveryRound) {
  // The online session must be a pure pass-through: at every stream
  // position its posterior is bit-identical to an engine fed the same
  // observations directly — including loss rounds (empty deliveries).
  const workload::population pop(stream_config());
  for (const attack::attack_kind kind :
       {attack::attack_kind::intersection, attack::attack_kind::sda,
        attack::attack_kind::sequential_bayes}) {
    attack::online_config ocfg;
    ocfg.kind = kind;
    attack::online_attack online(pop.config().receiver_count, ocfg);
    auto direct = attack::make_attack(kind, pop.config().receiver_count);
    for (std::uint32_t r = 0; r < pop.config().round_count; ++r) {
      attack::round_observation obs = observe(pop, 0, r);
      if (r % 11 == 3) obs.receivers.clear();  // retry/loss round
      online.ingest(obs);
      direct->observe_round(obs);
      EXPECT_EQ(online.posterior(), direct->posterior())
          << attack::attack_kind_label(kind) << " round " << r;
    }
  }
}

TEST(OnlineAttack, SdaOnlineEqualsOfflineCountPostprocessing) {
  // The genuine two-path identity: incremental observe_round ingestion vs
  // the sharded offline accumulation rebuilt through from_counts.
  const workload::population pop(stream_config());
  workload::cooccurrence_config ccfg;
  ccfg.threads = 8;
  const workload::cooccurrence_result totals =
      workload::accumulate_cooccurrence(pop, ccfg);
  for (std::uint32_t pair = 0; pair < pop.pairs().size(); ++pair) {
    attack::online_config ocfg;
    attack::online_attack online(pop.config().receiver_count, ocfg);
    for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
      online.ingest(observe(pop, pair, r));
    const attack::sda_attack offline = attack::sda_attack::from_counts(
        totals, pair, pop.config().receiver_count);
    EXPECT_EQ(online.posterior(), offline.posterior()) << "pair " << pair;
  }
}

TEST(OnlineAttack, TrajectoryStrideAndFinalPoint) {
  const workload::population pop(stream_config());
  attack::online_config ocfg;
  ocfg.stride = 7;
  attack::online_attack online(pop.config().receiver_count, ocfg);
  for (std::uint32_t r = 0; r < 24; ++r) online.ingest(observe(pop, 0, r));
  const std::vector<attack::trajectory_point>& traj = online.trajectory();
  ASSERT_EQ(traj.size(), 3u);  // rounds 7, 14, 21
  for (std::size_t i = 0; i < traj.size(); ++i)
    EXPECT_EQ(traj[i].round, 7u * (i + 1));
  // result() appends the current position when it is off-stride.
  const attack::attack_result res = online.result();
  ASSERT_EQ(res.trajectory.size(), 4u);
  EXPECT_EQ(res.trajectory.back().round, 24u);
  EXPECT_EQ(res.rounds, 24u);
  EXPECT_EQ(res.final_posterior, online.posterior());

  // An empty stream still summarizes: one uniform point at round 0.
  attack::online_attack idle(pop.config().receiver_count, ocfg);
  const attack::attack_result nothing = idle.result();
  ASSERT_EQ(nothing.trajectory.size(), 1u);
  EXPECT_EQ(nothing.trajectory.front().round, 0u);
  EXPECT_NEAR(nothing.entropy_bits,
              std::log2(pop.config().receiver_count), 1e-12);
}

TEST(OnlineAttack, RunWorkloadAttackEqualsManualSession) {
  const workload::population pop(stream_config());
  auto engine =
      attack::make_attack(attack::attack_kind::sda, pop.config().receiver_count);
  const attack::attack_result offline =
      attack::run_workload_attack(pop, 1, *engine, 0.99, 5);

  attack::online_config ocfg;
  ocfg.stride = 5;
  attack::online_attack online(pop.config().receiver_count, ocfg);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
    online.ingest(observe(pop, 1, r));
  const attack::attack_result res = online.result();
  EXPECT_EQ(res.final_posterior, offline.final_posterior);
  ASSERT_EQ(res.trajectory.size(), offline.trajectory.size());
  for (std::size_t i = 0; i < res.trajectory.size(); ++i) {
    EXPECT_EQ(res.trajectory[i].round, offline.trajectory[i].round);
    EXPECT_EQ(res.trajectory[i].entropy_bits,
              offline.trajectory[i].entropy_bits);
  }
  EXPECT_EQ(res.identified_round, offline.identified_round);
}

TEST(OnlineAttack, ConfigValidationRejectsIncoherentSessions) {
  attack::online_config bad;
  bad.kind = attack::attack_kind::sequential_bayes;
  bad.backend = workload::stream_backend::sketch;
  EXPECT_FALSE(bad.valid());
  EXPECT_THROW(attack::online_attack(10, bad), contract_violation);
  bad = {};
  bad.stride = 0;
  EXPECT_FALSE(bad.valid());
  bad = {};
  bad.kind = attack::attack_kind::none;
  EXPECT_FALSE(bad.valid());
  bad = {};
  bad.identified_threshold = 1.0;
  EXPECT_FALSE(bad.valid());
}

TEST(SketchSda, FromAccumulatorEqualsOnlineIngestion) {
  const workload::population pop(stream_config());
  workload::streaming_config scfg;
  scfg.backend = workload::stream_backend::sketch;
  workload::cooccurrence_config ccfg;
  ccfg.threads = 8;
  const workload::streaming_accumulator acc = workload::accumulate_streaming(
      pop, 0, pop.config().round_count, scfg, ccfg);
  for (std::uint32_t pair = 0; pair < pop.pairs().size(); ++pair) {
    attack::sketch_sda_attack online(pop.config().receiver_count);
    for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
      online.observe_round(observe(pop, pair, r));
    const attack::sketch_sda_attack sharded =
        attack::sketch_sda_attack::from_accumulator(
            acc, pair, pop.config().receiver_count);
    EXPECT_EQ(sharded.posterior(), online.posterior()) << "pair " << pair;
    EXPECT_EQ(sharded.candidates(), online.candidates()) << "pair " << pair;
    EXPECT_EQ(sharded.target_rounds(), online.target_rounds());
  }
}

TEST(SketchSda, EmptyRoundsAdvanceTheStreamPosition) {
  // Loss rounds carry no counts but must keep the reservoir priorities
  // aligned with the round index, or online ingestion and the sharded
  // accumulator (which indexes by batch.round) would diverge.
  const workload::population pop(stream_config());
  attack::sketch_sda_attack with_loss(pop.config().receiver_count);
  attack::sketch_sda_attack dense(pop.config().receiver_count);
  for (std::uint32_t r = 0; r < 40; ++r) {
    const attack::round_observation obs = observe(pop, 0, r);
    dense.observe_round(obs);
    attack::round_observation lossy;  // empty delivery round
    lossy.target_present = true;
    with_loss.observe_round(lossy);
    with_loss.observe_round(obs);
    with_loss.observe_round(lossy);
  }
  // Same deliveries at different stream positions: both engines retain a
  // valid reservoir, but the positions (hence priorities) differ — the
  // test pins that empty rounds DO advance position (no silent collapse
  // back to the dense numbering after the first loss).
  EXPECT_EQ(dense.target_rounds(), with_loss.target_rounds());
  EXPECT_EQ(with_loss.posterior().size(), dense.posterior().size());
}

TEST(SketchSda, BitIdenticalToExactSdaWhenCollisionFree) {
  // Small instance, default width: the sketches resolve every receiver
  // exactly and the reservoir never saturates, so the posterior must be
  // bit-identical to the dense engine on the same stream.
  workload::population_config cfg = stream_config();
  cfg.receiver_count = 120;
  const workload::population pop(cfg);
  attack::sketch_sda_attack sketched(cfg.receiver_count);
  attack::sda_attack dense(cfg.receiver_count);
  for (std::uint32_t r = 0; r < cfg.round_count; ++r) {
    const attack::round_observation obs = observe(pop, 0, r);
    sketched.observe_round(obs);
    dense.observe_round(obs);
  }
  ASSERT_FALSE(sketched.candidates_saturated());
  EXPECT_EQ(sketched.posterior(), dense.posterior());
}

TEST(SketchSda, EstimatesNeverUndercountAndRespectTheBound) {
  const workload::population pop(stream_config());
  const workload::cooccurrence_result totals =
      workload::accumulate_cooccurrence(pop, {});
  attack::sketch_sda_attack sketched(pop.config().receiver_count);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
    sketched.observe_round(observe(pop, 0, r));
  for (const auto& [receiver, count] : totals.global_receiver_counts) {
    const std::uint64_t est = sketched.estimate_global(receiver);
    EXPECT_GE(est, count) << "count-min must never undercount " << receiver;
    EXPECT_LE(est, count + sketched.error_bound()) << "receiver " << receiver;
  }
  for (const auto& [receiver, count] :
       totals.per_pair[0].target_receiver_counts) {
    EXPECT_GE(sketched.estimate_target(receiver), count);
  }
  // The candidate reservoir must retain the true partner — it co-occurs in
  // every emitting round, so its min-priority survives saturation.
  const std::vector<node_id> cand = sketched.candidates();
  EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(),
                                 pop.pairs()[0].receiver));
}

TEST(SketchSda, MemoryIsIndependentOfTheReceiverPopulation) {
  const attack::sketch_sda_attack small(1000);
  const attack::sketch_sda_attack large(10000000);
  EXPECT_EQ(small.memory_bytes(), large.memory_bytes());
  EXPECT_LT(large.memory_bytes(), std::size_t{1} << 20);
  // The dense engine scales with the population; that is the gap the
  // sketch backend exists to close.
  const attack::sda_attack dense_small(1000);
  const attack::sda_attack dense_large(1000000);
  EXPECT_GT(dense_large.memory_bytes(), dense_small.memory_bytes());
  EXPECT_GT(dense_large.memory_bytes(), large.memory_bytes());
}

TEST(BottomKSample, WeightedOffersAreOrderAndShardInvariant) {
  // The retained set is a pure function of the offered (key, priority)
  // multiset: any split and any order merge to the same sample.
  const std::uint64_t salt = 99;
  workload::bottom_k_sample forward(4, salt);
  workload::bottom_k_sample backward(4, salt);
  workload::bottom_k_sample sharded_a(4, salt);
  workload::bottom_k_sample sharded_b(4, salt);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> offers;
  for (std::uint64_t round = 0; round < 30; ++round)
    for (std::uint64_t slot = 0; slot < 3; ++slot)
      offers.emplace_back((round * 3 + slot) % 11,
                          workload::occurrence_priority(salt, round, slot));
  for (const auto& [k, p] : offers) forward.offer(k, p);
  for (auto it = offers.rbegin(); it != offers.rend(); ++it)
    backward.offer(it->first, it->second);
  for (std::size_t i = 0; i < offers.size(); ++i)
    (i % 2 ? sharded_a : sharded_b).offer(offers[i].first, offers[i].second);
  sharded_a.merge(sharded_b);
  EXPECT_EQ(forward.keys(), backward.keys());
  EXPECT_EQ(forward.keys(), sharded_a.keys());
  EXPECT_TRUE(forward.saturated());  // 11 distinct keys > k = 4
}

/// Builds a small internally-consistent counts fixture from_counts accepts.
workload::cooccurrence_result valid_counts() {
  workload::cooccurrence_result totals;
  totals.rounds = 10;
  totals.messages = 30;
  totals.global_receiver_counts = {{0, 10}, {2, 12}, {4, 8}};
  totals.per_pair.resize(1);
  totals.per_pair[0].target_rounds = 4;
  totals.per_pair[0].target_messages = 12;
  totals.per_pair[0].target_receiver_counts = {{0, 6}, {2, 6}};
  return totals;
}

void expect_rejects(const workload::cooccurrence_result& totals,
                    parse_error_kind kind, const char* what) {
  try {
    (void)attack::sda_attack::from_counts(totals, 0, 5);
    ADD_FAILURE() << what << ": corrupt totals accepted";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.kind(), kind) << what << ": " << e.what();
    EXPECT_EQ(e.source(), "cooccurrence") << what;
  }
}

TEST(SdaFromCounts, AcceptsConsistentTotals) {
  const attack::sda_attack atk =
      attack::sda_attack::from_counts(valid_counts(), 0, 5);
  const std::vector<double> post = atk.posterior();
  double sum = 0.0;
  for (double p : post) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SdaFromCounts, RejectsCorruptTotalsWithTheParseTaxonomy) {
  // Regression: every corruption below used to flow straight into unsigned
  // subtraction (background = global - target wrapping to ~2^64) or a
  // division by zero target rounds; now each is classified and thrown.
  workload::cooccurrence_result t = valid_counts();
  t.global_receiver_counts[1].first = 7;  // id beyond the population
  expect_rejects(t, parse_error_kind::out_of_range, "global id out of range");

  t = valid_counts();
  t.per_pair[0].target_receiver_counts = {{2, 6}, {0, 6}};  // descending
  expect_rejects(t, parse_error_kind::malformed, "non-ascending target rows");

  t = valid_counts();
  t.global_receiver_counts = {{0, 10}, {0, 12}, {4, 8}};  // duplicate id
  expect_rejects(t, parse_error_kind::malformed, "duplicate global row");

  t = valid_counts();
  t.per_pair[0].target_rounds = t.rounds + 1;
  expect_rejects(t, parse_error_kind::mismatch, "target rounds > rounds");

  t = valid_counts();
  t.per_pair[0].target_messages = t.messages + 1;
  expect_rejects(t, parse_error_kind::mismatch, "target messages > messages");

  t = valid_counts();
  t.per_pair[0].target_rounds = 0;  // messages with no rounds: m-bar = x/0
  expect_rejects(t, parse_error_kind::mismatch, "messages with zero rounds");

  t = valid_counts();
  t.per_pair[0].target_messages = 3;  // m-bar = 3/4 < 1
  expect_rejects(t, parse_error_kind::mismatch, "messages < rounds");

  t = valid_counts();
  t.per_pair[0].target_receiver_counts[1].second = 13;  // 13 > global 12
  expect_rejects(t, parse_error_kind::mismatch, "target count > global");

  t = valid_counts();
  t.per_pair[0].target_receiver_counts = {{0, 6}, {3, 1}};  // 3 not global
  expect_rejects(t, parse_error_kind::mismatch, "target receiver not global");

  // The trusted-caller precondition stays a contract, not a parse error.
  EXPECT_THROW((void)attack::sda_attack::from_counts(valid_counts(), 1, 5),
               contract_violation);
}

TEST(SdaAttack, ConfidenceIsFiniteUnderDegenerateBackground) {
  // Background so concentrated that the Laplace-smoothed rate rounds to
  // exactly 1.0 in double precision: the null then has zero variance, and
  // the z-score used to divide by zero (NaN/inf). Degenerate evidence must
  // read as zero surprise, not as a non-finite confidence.
  workload::cooccurrence_result totals;
  const std::uint64_t big = 100000000000000000ull;  // 1e17 >> 2^53
  totals.rounds = 2;
  totals.messages = big + 5;
  totals.global_receiver_counts = {{0, big}, {1, 5}};
  totals.per_pair.resize(1);
  totals.per_pair[0].target_rounds = 1;
  totals.per_pair[0].target_messages = 5;
  totals.per_pair[0].target_receiver_counts = {{1, 5}};
  const attack::sda_attack atk = attack::sda_attack::from_counts(totals, 0, 2);
  const std::vector<double> z = atk.confidence();
  for (double v : z)
    EXPECT_TRUE(std::isfinite(v)) << "confidence must never be NaN/inf";
  EXPECT_EQ(z[0], 0.0) << "certain-null receiver carries no surprise";
  EXPECT_GT(z[1], 0.0) << "the actual target receiver stays positive";
}

// --- Sparse SDA scoring against the dense loops it replaced ---------------

using pre_change::dense_sda_posterior;
using pre_change::dense_sketch_posterior;
using pre_change::stream_totals;

/// Element-wise `==` and bit-pattern equality (`==` alone accepts -0.0 for
/// +0.0).
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i] && std::bit_cast<std::uint64_t>(got[i]) ==
                                 std::bit_cast<std::uint64_t>(want[i]))
      continue;
    if (++bad <= 5)
      ADD_FAILURE() << what << ": entry " << i << " is " << got[i]
                    << ", dense reference " << want[i];
  }
  EXPECT_EQ(bad, 0u) << what;
}

attack::round_observation round_of(bool target,
                                   std::vector<node_id> receivers) {
  attack::round_observation obs;
  obs.target_present = target;
  obs.receivers = std::move(receivers);
  return obs;
}

/// Streams `rounds` through an exact and a sketch engine and checks both
/// posteriors against the dense references before the first round and
/// after every round.
void expect_sparse_matches_dense(
    std::uint32_t n, const std::vector<attack::round_observation>& rounds,
    const std::string& what, workload::sketch_params params = {}) {
  attack::sda_attack exact(n);
  attack::sketch_sda_attack sketch(n, params);
  stream_totals totals;
  for (std::size_t r = 0; r <= rounds.size(); ++r) {
    if (r > 0) {
      exact.observe_round(rounds[r - 1]);
      sketch.observe_round(rounds[r - 1]);
      totals.add(rounds[r - 1]);
    }
    const std::string at = what + " after " + std::to_string(r) + " rounds";
    expect_same_bits(exact.posterior(), dense_sda_posterior(exact),
                     at + " (exact)");
    expect_same_bits(sketch.posterior(),
                     dense_sketch_posterior(sketch, totals), at + " (sketch)");
  }
}

TEST(SparseSdaPosterior, NoTargetRoundsIsUniform) {
  const std::vector<attack::round_observation> rounds = {
      round_of(false, {1, 2, 63, 64, 129}), round_of(false, {64, 64, 7}),
      round_of(true, {}),  // loss round: not evidence
      round_of(false, {129})};
  expect_sparse_matches_dense(130, rounds, "background only");
  attack::sda_attack exact(130);
  for (const auto& obs : rounds) exact.observe_round(obs);
  EXPECT_EQ(exact.posterior(), std::vector<double>(130, 1.0 / 130.0));
}

TEST(SparseSdaPosterior, NoBackgroundRoundsUsesTheUniformPrior) {
  expect_sparse_matches_dense(
      130,
      {round_of(true, {63, 64, 129, 5}), round_of(true, {63, 7}),
       round_of(true, {64, 64, 64})},
      "target only (q = 1/N)");
}

TEST(SparseSdaPosterior, MeanBatchOfOne) {
  expect_sparse_matches_dense(
      130,
      {round_of(false, {3, 4, 64}), round_of(true, {64}),
       round_of(false, {64, 65}), round_of(true, {63}), round_of(true, {64}),
       round_of(false, {129, 0})},
      "m-bar = 1");
}

TEST(SparseSdaPosterior, ReceiversAtBitmapWordEdges) {
  // N = 130 is not a multiple of 64: ids 63/64 straddle the first word
  // boundary, 127/128 the second, and 129 sits in the partial last word.
  const std::vector<attack::round_observation> rounds = {
      round_of(true, {0, 63, 64, 127, 128, 129}),
      round_of(false, {1, 62, 65, 126, 128}),
      round_of(true, {63, 129, 129}),
      round_of(false, {63, 100}),
      round_of(true, {64, 129, 2})};
  expect_sparse_matches_dense(130, rounds, "word edges");
  attack::sda_attack exact(130);
  for (const auto& obs : rounds) exact.observe_round(obs);
  const std::vector<double> post = exact.posterior();
  EXPECT_GT(post[63], 0.0);
  EXPECT_GT(post[64], 0.0);
  EXPECT_GT(post[129], 0.0);
  EXPECT_EQ(post[65], 0.0) << "background-only receiver carries no mass";
}

TEST(SparseSdaPosterior, PopulationStreamsIncludingASaturatedReservoir) {
  const workload::population pop(stream_config());
  workload::sketch_params saturated;
  saturated.candidates = 4;
  for (std::uint32_t pair = 0; pair < pop.pairs().size(); ++pair) {
    std::vector<attack::round_observation> rounds;
    for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
      rounds.push_back(observe(pop, pair, r));
    const std::string what = "pair " + std::to_string(pair);
    expect_sparse_matches_dense(pop.config().receiver_count, rounds, what);
    expect_sparse_matches_dense(pop.config().receiver_count, rounds,
                                what + " k=4", saturated);
    attack::sketch_sda_attack probe(pop.config().receiver_count, saturated);
    for (const auto& obs : rounds) probe.observe_round(obs);
    EXPECT_TRUE(probe.candidates_saturated()) << what;
  }
}

TEST(SparseSdaPosterior, NoPositiveSignalFallsBackToUniform) {
  // Exact engine: target counts that cover 1 of 5 target messages (the
  // count rows are not required to sum to the message total) against a
  // background concentrated on the same receiver leave every signal <= 0.
  workload::cooccurrence_result totals;
  totals.rounds = 2;
  totals.messages = 15;
  totals.global_receiver_counts = {{0, 11}, {3, 4}};
  totals.per_pair.resize(1);
  totals.per_pair[0].target_rounds = 1;
  totals.per_pair[0].target_messages = 5;
  totals.per_pair[0].target_receiver_counts = {{0, 1}};
  const attack::sda_attack exact =
      attack::sda_attack::from_counts(totals, 0, 130);
  for (double s : exact.signal()) ASSERT_LE(s, 0.0);
  expect_same_bits(exact.posterior(), dense_sda_posterior(exact),
                   "exact, no positive signal");
  EXPECT_EQ(exact.posterior(), std::vector<double>(130, 1.0 / 130.0));

  // Sketch engine: a one-slot reservoir keeps one of three target
  // receivers; a background aimed entirely at the kept one drives its
  // signal to 3*(1/3) - 2*1 < 0.
  workload::sketch_params one;
  one.candidates = 1;
  attack::sketch_sda_attack sketch(130, one);
  stream_totals t;
  const attack::round_observation target = round_of(true, {10, 63, 64});
  sketch.observe_round(target);
  t.add(target);
  ASSERT_TRUE(sketch.candidates_saturated());
  const node_id kept = sketch.candidates().at(0);
  for (int r = 0; r < 4; ++r) {
    const attack::round_observation bg = round_of(false, {kept, kept});
    sketch.observe_round(bg);
    t.add(bg);
  }
  expect_same_bits(sketch.posterior(), dense_sketch_posterior(sketch, t),
                   "sketch, no positive signal");
  EXPECT_EQ(sketch.posterior(), std::vector<double>(130, 1.0 / 130.0));
}

TEST(SparseSdaPosterior, SeededFromCountsAndFromAccumulator) {
  const workload::population pop(stream_config());
  const std::uint32_t n = pop.config().receiver_count;
  const workload::cooccurrence_result counts =
      workload::accumulate_cooccurrence(pop, {});
  workload::sketch_params saturated;
  saturated.candidates = 4;
  for (const workload::sketch_params& params :
       {workload::sketch_params{}, saturated}) {
    workload::streaming_config scfg;
    scfg.backend = workload::stream_backend::sketch;
    scfg.sketch = params;
    workload::cooccurrence_config ccfg;
    ccfg.threads = 4;
    const workload::streaming_accumulator acc = workload::accumulate_streaming(
        pop, 0, pop.config().round_count, scfg, ccfg);
    for (std::uint32_t pair = 0; pair < pop.pairs().size(); ++pair) {
      const std::string what = "pair " + std::to_string(pair) + " " +
                               params.label();
      const attack::sda_attack exact =
          attack::sda_attack::from_counts(counts, pair, n);
      expect_same_bits(exact.posterior(), dense_sda_posterior(exact),
                       what + " from_counts");
      const attack::sketch_sda_attack sketch =
          attack::sketch_sda_attack::from_accumulator(acc, pair, n);
      stream_totals t;
      t.target_rounds = acc.target_rounds(pair);
      t.target_messages = acc.target_messages(pair);
      t.messages = acc.messages();
      expect_same_bits(sketch.posterior(), dense_sketch_posterior(sketch, t),
                       what + " from_accumulator");
    }
  }
}

// --- summarize_posterior against its definition ----------------------------

/// entropy_bits as the two dense passes it was defined by: a compensated
/// total over every entry, then -q log2 q over the positive entries.
double dense_entropy_bits(const std::vector<double>& p) {
  stats::kahan_sum total;
  for (double x : p) total.add(x);
  const double z = total.value();
  if (z <= 0.0) return 0.0;
  stats::kahan_sum h;
  for (double x : p) {
    if (x > 0.0) {
      const double q = x / z;
      h.add(-q * std::log2(q));
    }
  }
  return h.value();
}

void expect_summary_matches_definition(const std::vector<double>& post,
                                       const std::string& what) {
  const attack::trajectory_point pt =
      attack::summarize_posterior(post, 17, 0.5);
  const double h = dense_entropy_bits(post);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pt.entropy_bits),
            std::bit_cast<std::uint64_t>(h))
      << what << ": " << pt.entropy_bits << " vs " << h;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(entropy_bits(post)),
            std::bit_cast<std::uint64_t>(h))
      << what;
  const auto top = std::max_element(post.begin(), post.end());
  EXPECT_EQ(pt.top_receiver, static_cast<node_id>(top - post.begin()))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pt.top_mass),
            std::bit_cast<std::uint64_t>(*top))
      << what;
  EXPECT_EQ(pt.identified, *top > 0.5) << what;
  EXPECT_EQ(pt.round, 17u) << what;
}

TEST(SummarizePosterior, EqualsEntropyBitsPlusMaxElement) {
  expect_summary_matches_definition({0.0, 0.25, 0.5, 0.0, 0.25}, "plain");
  expect_summary_matches_definition({0.0, 0.4, 0.2, 0.4, 0.0},
                                    "tie: smallest id wins");
  expect_summary_matches_definition({0.3, 0.3, 0.3, 0.1}, "tie at id 0");
  expect_summary_matches_definition({0.0, 0.0, 0.0, 1.0}, "single nonzero");
  expect_summary_matches_definition({1.0, 0.0, 0.0}, "single nonzero at 0");
  expect_summary_matches_definition(std::vector<double>(1000, 1e-3),
                                    "uniform");
  expect_summary_matches_definition(std::vector<double>(7, 0.0), "all zero");
  std::vector<double> sparse(4099, 0.0);
  sparse[63] = 0.125;
  sparse[64] = 0.5;
  sparse[1000] = 0.125;
  sparse[4098] = 0.25;
  expect_summary_matches_definition(sparse, "mostly zero");
  sparse[4098] = 0.5;  // ties id 64 at the far end
  expect_summary_matches_definition(sparse, "mostly zero, tie");
  // A real mostly-zero posterior, unnormalized residue and all.
  const workload::population pop(stream_config());
  attack::sda_attack atk(pop.config().receiver_count);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r) {
    atk.observe_round(observe(pop, 0, r));
    expect_summary_matches_definition(atk.posterior(),
                                      "sda round " + std::to_string(r));
  }
}

}  // namespace
}  // namespace anonpath
