// Campaign checkpoint/resume: the harness-recovery half of the fault layer.
// The pinned contract is bit-identity — a campaign killed at ANY point and
// resumed from its journal renders the exact CSV bytes of an uninterrupted
// run, at any thread count — plus loud scope/corruption rejection and the
// per-cell error isolation that keeps one bad cell from killing a sweep.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/sim/campaign.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/stats/error.hpp"

namespace anonpath {
namespace {

sim::campaign_grid small_grid() {
  sim::campaign_grid grid;
  grid.node_counts = {16, 24};
  grid.compromised_counts = {1, 2};
  grid.lengths = {path_length_distribution::fixed(3)};
  grid.drop_probabilities = {0.0, 0.15};
  grid.retries = {sim::retry_policy{}, sim::retry_policy{2, 0.2, 2.0, 5.0}};
  grid.message_count = 120;
  return grid;  // 16 cells
}

std::string render(const sim::campaign_result& result) {
  std::ostringstream os;
  sim::write_csv(result, os);
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A scratch file path unique to the current test.
std::string scratch_path(const char* tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "anonpath_" + info->name() + "_" + tag +
         ".ckpt";
}

TEST(CampaignScope, FingerprintsEveryRelevantKnob) {
  const sim::campaign_grid grid = small_grid();
  sim::campaign_config config;
  config.replicas = 2;
  const std::uint64_t base = sim::campaign_scope(grid, config);
  EXPECT_EQ(base, sim::campaign_scope(grid, config));  // deterministic

  sim::campaign_config other = config;
  other.master_seed = 2;
  EXPECT_NE(base, sim::campaign_scope(grid, other));
  other = config;
  other.replicas = 3;
  EXPECT_NE(base, sim::campaign_scope(grid, other));

  sim::campaign_grid changed = small_grid();
  changed.drop_probabilities = {0.0, 0.151};
  EXPECT_NE(base, sim::campaign_scope(changed, config));
  changed = small_grid();
  changed.retries[1].max_retries = 3;
  EXPECT_NE(base, sim::campaign_scope(changed, config));
  changed = small_grid();
  changed.fault_outages = {{0, 1.0, 2.0}};
  EXPECT_NE(base, sim::campaign_scope(changed, config));
  changed = small_grid();
  changed.mix_failures = {sim::mix_failure_config{3, 0.0, 1.0}};
  EXPECT_NE(base, sim::campaign_scope(changed, config));
}

TEST(CampaignScope, PinnedFingerprintValues) {
  // Literal fingerprints: a refactor of the scope serializer must keep
  // every existing journal resumable, so these values never change without
  // a checkpoint format version bump.
  sim::campaign_config config;
  EXPECT_EQ(sim::campaign_scope(sim::campaign_grid{}, config),
            0x49d3c1cfca19a2b4ULL);

  // Every axis, the outage plan and every shared setting off default.
  sim::campaign_grid grid;
  grid.node_counts = {16, 24};
  grid.compromised_counts = {2, 3};
  grid.lengths = {path_length_distribution::uniform(1, 4),
                  path_length_distribution::geometric(0.7, 1, 5)};
  grid.modes = {routing_mode::hop_by_hop, routing_mode::source_routed};
  grid.drop_probabilities = {0.05, 0.1};
  grid.arrival_rates = {20.0, 75.5};
  grid.adversaries = {
      sim::adversary_config{sim::adversary_kind::partial_coverage, 0.3, false},
      sim::adversary_config{sim::adversary_kind::timing_correlator, 1.0,
                            true}};
  grid.topologies = {
      net::topology_config{net::topology_kind::ring, 2, 4, 1, 3, 0.5},
      net::topology_config{net::topology_kind::random_regular, 1, 4, 9, 3,
                           0.5}};
  grid.routings = {net::routing_config{net::route_select::kpaths, 3}};
  grid.churns = {net::churn_config{0.5, 2.0}};
  grid.mix_failures = {sim::mix_failure_config{2, 4.0, 1.5}};
  grid.retries = {sim::retry_policy{2, 0.25, 1.5, 4.0}};
  grid.populations = {0, 12};
  grid.session_rounds = {0, 20};
  grid.attacks = {attack::attack_kind::none, attack::attack_kind::sda};
  grid.streams = {workload::stream_backend::exact,
                  workload::stream_backend::sketch};
  grid.fault_outages = {{3, 0.5, 2.0}, {5, 1.0, 0.25}};
  grid.message_count = 321;
  grid.forward_prob = 0.6;
  grid.latency = sim::latency_params{0.03, 0.02, 0.004};
  grid.identified_threshold = 0.95;
  grid.session_receiver_law =
      workload::popularity_law{workload::popularity_kind::zipf, 1.25};
  config.replicas = 5;
  config.master_seed = 42;
  EXPECT_EQ(sim::campaign_scope(grid, config), 0x84785dfbd8cd32c7ULL);
}

TEST(Checkpoint, CellRecordsRoundTripBitExactly) {
  sim::campaign_cell cell;
  cell.replicas = 4;
  cell.submitted = 480;
  cell.delivered = 399;
  cell.delivered_fraction.add(0.831);
  cell.delivered_fraction.add(0.8315);
  cell.latency_seconds.add(0.1234567891234);
  cell.entropy_bits.add(3.0);
  cell.entropy_bits.add(3.5);
  cell.retransmit_rate.add(0.25);

  sim::campaign_cell errored;
  errored.replicas = 4;
  errored.error = "precondition failed: something, with a comma";

  std::ostringstream os;
  sim::write_checkpoint_header(os, 0xdeadbeefcafef00dULL);
  sim::append_checkpoint_cell(os, 0, cell);
  sim::append_checkpoint_cell(os, 1, errored);

  std::istringstream is(os.str());
  const auto cells = sim::read_checkpoint(is, 0xdeadbeefcafef00dULL, 10);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].submitted, cell.submitted);
  EXPECT_EQ(cells[0].delivered, cell.delivered);
  EXPECT_EQ(cells[0].delivered_fraction.count(), 2u);
  EXPECT_EQ(cells[0].delivered_fraction.mean(),
            cell.delivered_fraction.mean());
  EXPECT_EQ(cells[0].delivered_fraction.std_error(),
            cell.delivered_fraction.std_error());
  EXPECT_EQ(cells[0].latency_seconds.mean(), cell.latency_seconds.mean());
  EXPECT_EQ(cells[0].entropy_bits.m2(), cell.entropy_bits.m2());
  EXPECT_EQ(cells[0].retransmit_rate.mean(), 0.25);
  EXPECT_TRUE(cells[0].error.empty());
  EXPECT_EQ(cells[1].error, errored.error);
}

TEST(Checkpoint, RejectsForeignAndCorruptJournals) {
  std::ostringstream os;
  sim::write_checkpoint_header(os, 1);
  sim::append_checkpoint_cell(os, 0, sim::campaign_cell{});
  sim::append_checkpoint_cell(os, 1, sim::campaign_cell{});
  const std::string text = os.str();

  {
    std::istringstream is(text);
    EXPECT_THROW(sim::read_checkpoint(is, 2, 10), parse_error);  // scope
  }
  {
    std::istringstream is("anonpath-trace v1\n");
    EXPECT_THROW(sim::read_checkpoint(is, 1, 10), parse_error);  // magic
  }
  {
    std::istringstream is("anonpath-checkpoint v9\nscope whatever\n");
    EXPECT_THROW(sim::read_checkpoint(is, 1, 10), parse_error);  // version
  }
  {
    // A mangled NON-final record is corruption, not a kill point.
    std::string mangled = text;
    mangled.replace(mangled.find("cell 0"), 6, "cell x");
    std::istringstream is(mangled);
    EXPECT_THROW(sim::read_checkpoint(is, 1, 10), parse_error);
  }
  {
    // More records than the grid has cells: a foreign or stale journal.
    std::istringstream is(text);
    EXPECT_THROW(sim::read_checkpoint(is, 1, 1), parse_error);
  }
  {
    // Empty stream = killed before the header: zero progress, no error.
    std::istringstream is("");
    EXPECT_TRUE(sim::read_checkpoint(is, 1, 10).empty());
  }
}

TEST(Checkpoint, KillPointSweepResumesBitIdentically) {
  const sim::campaign_grid grid = small_grid();
  sim::campaign_config config;
  config.replicas = 3;
  config.master_seed = 77;
  config.threads = 1;
  config.checkpoint_path = scratch_path("clean");

  const auto clean = sim::run_campaign(grid, config);
  const std::string clean_csv = render(clean);
  const std::string journal = slurp(config.checkpoint_path);
  ASSERT_EQ(clean.cells.size(), 16u);

  // Kill points: before any cell, after the first, mid-grid, mid-append of
  // the final record, and after everything. Each truncated journal must
  // resume to the same CSV bytes — on one thread and on eight.
  std::size_t header_end = journal.find('\n');
  header_end = journal.find('\n', header_end + 1) + 1;
  std::vector<std::size_t> kill_points = {header_end};
  std::size_t pos = header_end;
  for (int cells = 0; cells < 15; ++cells) pos = journal.find('\n', pos) + 1;
  kill_points.push_back(journal.find('\n', header_end) + 1);   // cell 0 done
  kill_points.push_back(pos);                                  // 15 of 16
  kill_points.push_back(journal.size() - 7);                   // torn record
  kill_points.push_back(journal.size());                       // complete

  int tag = 0;
  for (std::size_t kill : kill_points) {
    for (unsigned threads : {1u, 8u}) {
      sim::campaign_config resume_config = config;
      resume_config.threads = threads;
      resume_config.resume = true;
      resume_config.checkpoint_path =
          scratch_path(("k" + std::to_string(tag++)).c_str());
      {
        std::ofstream out(resume_config.checkpoint_path, std::ios::binary);
        out << journal.substr(0, kill);
      }
      const auto resumed = sim::run_campaign(grid, resume_config);
      EXPECT_EQ(render(resumed), clean_csv)
          << "kill at byte " << kill << ", " << threads << " thread(s)";
      // And the rewritten journal is complete again: a second resume does
      // zero work and still reproduces the bytes.
      sim::campaign_config again = resume_config;
      again.threads = 1;
      EXPECT_EQ(render(sim::run_campaign(grid, again)), clean_csv);
      std::remove(resume_config.checkpoint_path.c_str());
    }
  }
  std::remove(config.checkpoint_path.c_str());
}

TEST(Checkpoint, ThreadCountInvarianceWithoutJournal) {
  const sim::campaign_grid grid = small_grid();
  sim::campaign_config config;
  config.replicas = 2;
  config.master_seed = 5;
  config.threads = 1;
  const std::string serial = render(sim::run_campaign(grid, config));
  config.threads = 8;
  EXPECT_EQ(render(sim::run_campaign(grid, config)), serial);
}

TEST(Checkpoint, MissingJournalDegradesToFreshStart) {
  const sim::campaign_grid grid = small_grid();
  sim::campaign_config config;
  config.replicas = 1;
  config.checkpoint_path = scratch_path("absent");
  config.resume = true;
  std::remove(config.checkpoint_path.c_str());
  const auto result = sim::run_campaign(grid, config);
  EXPECT_EQ(result.cells.size(), 16u);
  std::remove(config.checkpoint_path.c_str());
}

TEST(Checkpoint, ErrorCellsSurviveTheJournal) {
  // A fault plan naming node 20 fails every N=16 cell but none of the
  // N=24 cells; the error rows must flow through checkpoint + resume into
  // byte-identical CSV (error column included).
  sim::campaign_grid grid = small_grid();
  grid.fault_outages = {{20, 0.0, 5.0}};
  sim::campaign_config config;
  config.replicas = 2;
  config.checkpoint_path = scratch_path("err");

  const auto clean = sim::run_campaign(grid, config);
  const std::string clean_csv = render(clean);
  std::size_t errored = 0;
  for (const auto& cell : clean.cells)
    if (!cell.error.empty()) ++errored;
  EXPECT_EQ(errored, 8u);  // every N=16 cell
  EXPECT_NE(clean_csv.find(",error"), std::string::npos);

  const std::string journal = slurp(config.checkpoint_path);
  sim::campaign_config resumed = config;
  resumed.resume = true;
  {  // keep half the journal: 2 header lines + 5 records
    std::size_t pos = 0;
    for (int lines = 0; lines < 7; ++lines) pos = journal.find('\n', pos) + 1;
    std::ofstream out(config.checkpoint_path, std::ios::binary);
    out << journal.substr(0, pos);
  }
  EXPECT_EQ(render(sim::run_campaign(grid, resumed)), clean_csv);
  std::remove(config.checkpoint_path.c_str());
}

}  // namespace
}  // namespace anonpath
