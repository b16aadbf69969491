// A campaign scores each cell once: its replicas share one cell_scorer (one
// engine per effective compromised set and one memo of posterior
// summaries) and are scored in replica order, whichever thread ran their
// event cores. This pins that fast path against its slow reference, one
// run_simulation per replica under the campaign's own seeds, on a grid that
// reaches every scoring branch: the clique and regular:4 walk engines,
// planned (kpaths) routes, partial coverage with and without an honest
// receiver (per-replica effective sets), the timing correlator (gapped,
// sometimes unexplainable observations), fused retransmissions and a
// sequential-Bayes session (the memo's target-sender mass). The CSV and
// the metrics' stable text must not depend on thread count or sharding.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/jsonl.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {
namespace {

constexpr std::uint32_t replicas = 4;
constexpr std::uint64_t master_seed = 2718;

campaign_grid scoring_grid() {
  campaign_grid grid;
  grid.node_counts = {12};
  grid.compromised_counts = {2};
  grid.lengths = {path_length_distribution::uniform(1, 5)};
  // Losses make the retry policy retransmit (fused scoring) and leave some
  // observations no hypothesis explains.
  grid.drop_probabilities = {0.15};
  net::topology_config regular;
  regular.kind = net::topology_kind::random_regular;
  regular.degree = 4;
  regular.graph_seed = 77;
  grid.topologies = {net::topology_config{}, regular};
  net::routing_config kpaths;
  kpaths.kind = net::route_select::kpaths;
  kpaths.k = 2;
  grid.routings = {net::routing_config{}, kpaths};
  adversary_config partial;
  partial.kind = adversary_kind::partial_coverage;
  partial.coverage_fraction = 0.3;
  adversary_config partial_honest = partial;
  partial_honest.receiver_compromised = false;
  adversary_config timing;
  timing.kind = adversary_kind::timing_correlator;
  grid.adversaries = {adversary_config{}, partial, partial_honest, timing};
  retry_policy retry;
  retry.max_retries = 2;
  retry.timeout = 0.5;
  grid.retries = {retry_policy{}, retry};
  grid.populations = {0, 10};
  grid.session_rounds = {0, 5};
  grid.attacks = {attack::attack_kind::none,
                  attack::attack_kind::sequential_bayes};
  grid.message_count = 40;
  return grid;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_summary(const stats::running_summary& got,
                         const stats::running_summary& want,
                         const std::string& what) {
  EXPECT_EQ(got.count(), want.count()) << what;
  EXPECT_TRUE(same_bits(got.mean(), want.mean())) << what;
  EXPECT_TRUE(same_bits(got.m2(), want.m2())) << what;
}

struct campaign_run {
  std::string csv;
  std::string metrics;  // obs::stable_text of the counters
  obs::metrics_snapshot snapshot;
  campaign_result result;
};

campaign_run run(const campaign_grid& grid, unsigned threads) {
  campaign_config cfg;
  cfg.replicas = replicas;
  cfg.master_seed = master_seed;
  cfg.threads = threads;
  obs::metrics_registry registry;
  cfg.metrics = &registry;
  campaign_run out;
  out.result = run_campaign(grid, cfg);
  std::ostringstream csv;
  write_csv(out.result, csv);
  out.csv = csv.str();
  out.snapshot = registry.snapshot();
  out.metrics = obs::stable_text(out.snapshot, {});
  return out;
}

/// The grid run as two shards at different thread counts, merged.
campaign_run run_sharded(const campaign_grid& grid) {
  campaign_config cfg;
  cfg.replicas = replicas;
  cfg.master_seed = master_seed;
  std::vector<std::string> paths;
  obs::metrics_snapshot merged;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    campaign_config part = cfg;
    part.shard_index = shard;
    part.shard_count = 2;
    part.threads = shard == 0 ? 2 : 3;
    part.checkpoint_path = ::testing::TempDir() + "anonpath_cell_scoring_" +
                           std::to_string(shard) + ".ckpt";
    std::remove(part.checkpoint_path.c_str());
    paths.push_back(part.checkpoint_path);
    obs::metrics_registry registry;
    part.metrics = &registry;
    (void)run_campaign(grid, part);
    merged = shard == 0 ? registry.snapshot()
                        : obs::merge_snapshots(merged, registry.snapshot());
  }
  campaign_run out;
  out.result = merge_campaign(grid, cfg, paths);
  for (const std::string& p : paths) std::remove(p.c_str());
  std::ostringstream csv;
  write_csv(out.result, csv);
  out.csv = csv.str();
  out.snapshot = merged;
  out.metrics = obs::stable_text(merged, {});
  return out;
}

TEST(CellScoring, CampaignCellsEqualPerReplicaRunSimulation) {
  const campaign_grid grid = scoring_grid();
  const std::vector<scenario> cells = expand_grid(grid);
  // 3 routed engines x 3 adversaries + the timing correlator on the plain
  // clique, x 2 retry policies x 3 session settings.
  ASSERT_EQ(cells.size(), 78u);
  const campaign_run campaign = run(grid, 3);
  ASSERT_EQ(campaign.result.cells.size(), cells.size());

  std::uint64_t obs_hits = 0, obs_misses = 0, layout_lookups = 0;
  std::uint64_t retransmissions = 0, sequential_cells = 0;
  std::uint64_t events = 0, submitted = 0, delivered = 0, dropped = 0;
  std::uint64_t stranded = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const scenario& s = cells[c];
    stats::running_summary entropy, identified, top1, attack_entropy;
    for (std::uint32_t rep = 0; rep < replicas; ++rep) {
      const std::uint64_t seed =
          stats::rng::stream(master_seed, c * replicas + rep).next_u64();
      const sim_report r = run_simulation(scenario_config(s, grid, seed));
      obs_hits += r.obs_memo_hits;
      obs_misses += r.obs_memo_misses;
      layout_lookups += r.memo_hits + r.memo_misses;
      retransmissions += r.retransmissions;
      events += r.events_executed;
      submitted += r.submitted;
      delivered += r.delivered;
      dropped += r.wire_dropped;
      stranded += r.wire_stranded + r.wire_crashed;
      if (!std::isnan(r.empirical_entropy_bits)) {
        entropy.add(r.empirical_entropy_bits);
        identified.add(r.identified_fraction);
        top1.add(r.top1_accuracy);
      }
      if (r.session) attack_entropy.add(r.session->entropy_bits);
    }
    const campaign_cell& cell = campaign.result.cells[c];
    const std::string what = "cell " + std::to_string(c) + " " +
                             s.topology.label() + " " + s.routing.label() +
                             " " + s.adversary.label() + " " +
                             s.retry.label() + " " +
                             attack::attack_kind_label(s.attack);
    EXPECT_TRUE(cell.error.empty()) << what << ": " << cell.error;
    expect_same_summary(cell.entropy_bits, entropy, what + " entropy");
    expect_same_summary(cell.identified_fraction, identified,
                        what + " identified");
    expect_same_summary(cell.top1_accuracy, top1, what + " top1");
    expect_same_summary(cell.attack_entropy_bits, attack_entropy,
                        what + " attack entropy");
    if (s.attack == attack::attack_kind::sequential_bayes) ++sequential_cells;
  }
  EXPECT_EQ(sequential_cells, 26u);
  EXPECT_GT(retransmissions, 0u);

  // Per-run observation-memo counters keep their per-run meaning; the
  // layout memo and the cell memo count the work the cell actually did.
  const auto& counters = campaign.snapshot.counters;
  EXPECT_EQ(counters.at("posterior.obs_memo_hits"), obs_hits);
  EXPECT_EQ(counters.at("posterior.obs_memo_misses"), obs_misses);
  EXPECT_EQ(counters.at("sim.retransmissions"), retransmissions);
  // The event-core counters are the per-run sums too (harvest_report's
  // contract); the grid's 0.15 link loss makes the drop count nonzero.
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(counters.at("sim.events_executed"), events);
  EXPECT_EQ(counters.at("sim.messages_submitted"), submitted);
  EXPECT_EQ(counters.at("sim.messages_delivered"), delivered);
  EXPECT_EQ(counters.at("sim.messages_dropped"), dropped);
  EXPECT_EQ(counters.at("sim.messages_stranded"), stranded);
  EXPECT_GT(counters.at("posterior.cell_memo_entries"), 0u);
  EXPECT_LT(counters.at("posterior.cell_memo_entries"), obs_misses);
  EXPECT_GT(counters.at("attack.memo_hits") + counters.at("attack.memo_misses"),
            0u);
  EXPECT_LT(counters.at("attack.memo_hits") + counters.at("attack.memo_misses"),
            layout_lookups);
}

TEST(CellScoring, CsvAndMetricsIdenticalAcrossThreadsShardsAndTraces) {
  const campaign_grid grid = scoring_grid();
  const campaign_run base = run(grid, 1);
  ASSERT_GT(base.snapshot.counters.at("posterior.cell_memo_entries"), 0u);
  for (const unsigned threads : {3u, 8u}) {
    const campaign_run other = run(grid, threads);
    EXPECT_EQ(other.csv, base.csv) << threads << " threads";
    EXPECT_EQ(other.metrics, base.metrics) << threads << " threads";
  }
  const campaign_run sharded = run_sharded(grid);
  EXPECT_EQ(sharded.csv, base.csv);
  EXPECT_EQ(sharded.metrics, base.metrics);
}

}  // namespace
}  // namespace anonpath::sim
