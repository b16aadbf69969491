// disclosure_1e6: a population-scale statistical disclosure attack, the
// library equivalent of
//   anonpath attack --attack sda --users 1000000 --rounds 3000
//     --send-rate 0.5 --receiver-law zipf:1.0 --stream sketch --threads 4
// Both online backends (exact counts and the count-min sketch) ingest one
// round stream with a trajectory snapshot every rounds/50 rounds, then the
// 4-thread sharded exact and sketch accumulations run over the same rounds.
// It covers the workload and attack layers with no sim or net code, and
// loads the attack layer both ways: exact is bound by its O(receivers)
// posterior snapshots, the sketch by ingest.

#include <algorithm>
#include <stdexcept>
#include <optional>

#include "perfbench/harness.hpp"
#include "src/attack/disclosure.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/workload/population.hpp"
#include "src/workload/streaming.hpp"

namespace perfbench {
namespace {

using namespace anonpath;

constexpr std::uint32_t users = 1000000;
constexpr std::uint32_t rounds = 3000;
constexpr std::uint32_t stride = rounds / 50;
constexpr unsigned threads = 4;
constexpr double threshold = 0.99;

workload::population_config population_config(std::uint64_t seed,
                                              std::uint32_t round_count) {
  workload::population_config cfg;
  cfg.seed = seed;
  cfg.user_count = users;
  cfg.receiver_count = users;
  cfg.round_count = round_count;
  cfg.persistent_pairs = 1;
  cfg.persistent_rate = 0.5;
  cfg.round_size = 32;
  cfg.receiver_law = {workload::popularity_kind::zipf, 1.0};
  return cfg;
}

/// One backend's online session: the engine plus its trajectory, driven
/// the way attack::online_attack drives it, with ingest and snapshot
/// apart so each can be timed.
template <class Engine>
struct online_backend {
  Engine engine{users};
  std::vector<attack::trajectory_point> trajectory;
  std::vector<double> final_posterior;
};

using exact_backend = online_backend<attack::sda_attack>;
using sketch_backend = online_backend<attack::sketch_sda_attack>;

template <class Engine>
void snapshot(online_backend<Engine>& b, std::uint32_t round,
              obs::tracer* tracer, const char* span_name) {
  const obs::span s(tracer, span_name);
  b.final_posterior = b.engine.posterior();
  b.trajectory.push_back(
      attack::summarize_posterior(b.final_posterior, round, threshold));
}

/// Streams every round of `pop` through both engines; returns the number
/// of deliveries ingested.
std::uint64_t run_online(const workload::population& pop, exact_backend& exact,
                         sketch_backend& sketch, obs::tracer* tracer) {
  const std::uint32_t count = pop.config().round_count;
  const node_id target = pop.pairs().front().sender;
  std::uint64_t deliveries = 0;
  attack::round_observation round_obs;
  for (std::uint32_t r = 0; r < count; ++r) {
    workload::round_batch batch = [&] {
      const obs::span s(tracer, "workload.round_gen");
      return pop.round(r);
    }();
    round_obs.target_present =
        std::find(batch.senders.begin(), batch.senders.end(), target) !=
        batch.senders.end();
    round_obs.receivers = std::move(batch.receivers);
    deliveries += round_obs.receivers.size();
    {
      const obs::span s(tracer, "attack.exact.ingest");
      exact.engine.observe_round(round_obs);
    }
    {
      const obs::span s(tracer, "attack.sketch.ingest");
      sketch.engine.observe_round(round_obs);
    }
    if ((r + 1) % stride != 0) continue;
    snapshot(exact, r + 1, tracer, "attack.exact.snapshot");
    snapshot(sketch, r + 1, tracer, "attack.sketch.snapshot");
  }
  return deliveries;
}

class disclosure final : public bench_workload {
 public:
  explicit disclosure(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // The zipf alias tables over 1e6 receivers are built here.
    pop_.emplace(population_config(seed_, rounds));
    // Warm-up: a short stream through both engines and an accumulator.
    const workload::population warm(population_config(seed_, 2 * stride));
    exact_backend exact;
    sketch_backend sketch;
    run_online(warm, exact, sketch, nullptr);
    const workload::streaming_accumulator acc = workload::accumulate_streaming(
        warm, 0, 2 * stride, {}, workload::cooccurrence_config{threads, 0});
    if (acc.rounds() != 2 * stride)
      throw std::runtime_error("disclosure_1e6 warm-up failed");
  }

  void solve(obs::tracer* tracer) override {
    exact_.emplace();
    sketch_.emplace();
    deliveries_ = run_online(*pop_, *exact_, *sketch_, tracer);
    const workload::cooccurrence_config ccfg{threads, 0};
    {
      const obs::span s(tracer, "workload.accumulate_exact");
      exact_acc_.emplace(
          workload::accumulate_streaming(*pop_, 0, rounds, {}, ccfg));
    }
    workload::streaming_config scfg;
    scfg.backend = workload::stream_backend::sketch;
    const obs::span s(tracer, "workload.accumulate_sketch");
    sketch_acc_.emplace(
        workload::accumulate_streaming(*pop_, 0, rounds, scfg, ccfg));
  }

  void check(checks& c) override {
    const node_id partner = pop_->pairs().front().receiver;
    c.expect(exact_->trajectory.back().top_receiver == partner,
             "disclosure_1e6: exact backend ranks the true partner first");
    c.expect(sketch_->trajectory.back().top_receiver == partner,
             "disclosure_1e6: sketch backend ranks the true partner first");
    const workload::cooccurrence_result totals = exact_acc_->totals();
    c.expect(attack::sda_attack::from_counts(totals, 0, users).posterior() ==
                 exact_->final_posterior,
             "disclosure_1e6: sharded exact accumulation reproduces the "
             "online posterior bit for bit");
    c.expect(
        attack::sketch_sda_attack::from_accumulator(*sketch_acc_, 0, users)
                .posterior() == sketch_->final_posterior,
        "disclosure_1e6: sharded sketch accumulation reproduces the online "
        "posterior bit for bit");
    bool undercount = false;
    for (const auto& [receiver, count] : totals.global_receiver_counts)
      undercount =
          undercount || sketch_->engine.estimate_global(receiver) < count;
    c.expect(!undercount, "disclosure_1e6: the sketch never undercounts");
    c.expect(totals.rounds == rounds && totals.global_receiver_counts.size() > 0,
             "disclosure_1e6: the accumulation covers every round");
    const double top_mass = exact_->trajectory.back().top_mass;
    if (!first_top_mass_) first_top_mass_ = top_mass;
    c.expect(top_mass == *first_top_mass_,
             "disclosure_1e6: repeated solves give identical posteriors");
  }

  [[nodiscard]] double work_units() const override { return 2.0 * rounds; }
  [[nodiscard]] const char* work_unit_name() const override {
    return "rounds ingested (both backends)";
  }

  void layer_metrics(const obs::tracer& tracer, metric_map& out) override {
    out["workload.round_gen_s"] = {span_total_s(tracer, "workload.round_gen"),
                                   "s"};
    out["workload.deliveries"] = {static_cast<double>(deliveries_), "count"};
    out["workload.accumulate_exact_s"] = {
        span_total_s(tracer, "workload.accumulate_exact"), "s"};
    out["workload.accumulate_sketch_s"] = {
        span_total_s(tracer, "workload.accumulate_sketch"), "s"};
    out["workload.accumulator_bytes"] = {
        static_cast<double>(exact_acc_->memory_bytes() +
                            sketch_acc_->memory_bytes()),
        "bytes"};
    for (const std::string backend : {"exact", "sketch"}) {
      const std::string prefix = "attack." + backend;
      const std::vector<double> ingest =
          span_durations_ms(tracer, prefix + ".ingest");
      const std::vector<double> snapshots =
          span_durations_ms(tracer, prefix + ".snapshot");
      // Per-round latency: ingest, plus the snapshot on stride rounds.
      std::vector<double> round_us(ingest.size());
      for (std::size_t r = 0; r < ingest.size(); ++r)
        round_us[r] = 1000.0 * ingest[r];
      for (std::size_t k = 0; k < snapshots.size(); ++k)
        round_us[(k + 1) * stride - 1] += 1000.0 * snapshots[k];
      out[prefix + ".ingest_s"] = {span_total_s(tracer, prefix + ".ingest"),
                                   "s"};
      out[prefix + ".snapshot_s"] = {
          span_total_s(tracer, prefix + ".snapshot"), "s"};
      out[prefix + ".round_us_p50"] = {quantile(round_us, 0.5), "us"};
      out[prefix + ".round_us_p99"] = {quantile(round_us, 0.99), "us"};
    }
    out["attack.round_samples"] = {static_cast<double>(rounds), "count"};
    out["attack.exact.memory_bytes"] = {
        static_cast<double>(exact_->engine.memory_bytes()), "bytes"};
    out["attack.sketch.memory_bytes"] = {
        static_cast<double>(sketch_->engine.memory_bytes()), "bytes"};
    out["attack.sketch.reservoir_evictions"] = {
        static_cast<double>(sketch_->engine.reservoir_evictions()), "count"};
    out["attack.sketch.occupied_cells"] = {
        static_cast<double>(sketch_->engine.occupied_cells()), "count"};
  }

 private:
  std::uint64_t seed_;
  std::optional<workload::population> pop_;
  std::optional<exact_backend> exact_;
  std::optional<sketch_backend> sketch_;
  std::optional<workload::streaming_accumulator> exact_acc_;
  std::optional<workload::streaming_accumulator> sketch_acc_;
  std::uint64_t deliveries_ = 0;
  std::optional<double> first_top_mass_;
};

}  // namespace

std::unique_ptr<bench_workload> make_disclosure(std::uint64_t seed) {
  return std::make_unique<disclosure>(seed);
}

}  // namespace perfbench
