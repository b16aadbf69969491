// The trace subsystem's contracts: replay(capture(cfg)) reproduces inline
// run_simulation bit for bit for every preset and adversary model, the
// serialized form round-trips byte- and bit-exactly, version mismatches are
// refused, and the committed golden trace keeps both the format and the
// replay semantics honest across refactors.
//
// Regenerate the golden fixture (after an *intentional* format change only)
// with:
//   ./build/anonpath capture --n 16 --c 2 --dist U:1,5 --messages 40 \
//     --seed 5 --out tests/golden/trace_v1.trace

#include "src/sim/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "src/anonymity/entropy.hpp"
#include "src/sim/campaign_axes.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"

namespace anonpath::sim {
namespace {

#ifndef ANONPATH_TEST_DATA_DIR
#error "ANONPATH_TEST_DATA_DIR must point at the tests/ source directory"
#endif

/// Bitwise report equality: NaN == NaN, -0.0 != 0.0 — exactly "same run".
bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_reports_identical(const sim_report& a, const sim_report& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.hop_histogram, b.hop_histogram);
  EXPECT_TRUE(bit_equal(a.end_to_end_latency.mean(),
                        b.end_to_end_latency.mean()));
  EXPECT_TRUE(bit_equal(a.realized_hops.mean(), b.realized_hops.mean()));
  EXPECT_TRUE(bit_equal(a.empirical_entropy_bits, b.empirical_entropy_bits));
  EXPECT_TRUE(
      bit_equal(a.empirical_entropy_stderr, b.empirical_entropy_stderr));
  EXPECT_TRUE(bit_equal(a.identified_fraction, b.identified_fraction));
  EXPECT_TRUE(bit_equal(a.top1_accuracy, b.top1_accuracy));
  EXPECT_EQ(a.posteriors, b.posteriors);
}

void expect_sessions_identical(const session_report& a,
                               const session_report& b) {
  EXPECT_TRUE(bit_equal(a.entropy_bits, b.entropy_bits));
  EXPECT_EQ(a.identified_round, b.identified_round);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    const attack::trajectory_point &p = a.trajectory[i], &q = b.trajectory[i];
    EXPECT_EQ(p.round, q.round) << "point " << i;
    EXPECT_TRUE(bit_equal(p.entropy_bits, q.entropy_bits)) << "point " << i;
    EXPECT_TRUE(bit_equal(p.top_mass, q.top_mass)) << "point " << i;
    EXPECT_EQ(p.top_receiver, q.top_receiver) << "point " << i;
    EXPECT_EQ(p.identified, q.identified) << "point " << i;
  }
}

std::vector<sim_config> preset_configs() {
  std::vector<sim_config> out;
  const path_length_distribution presets[] = {
      path_length_distribution::fixed(3),
      path_length_distribution::uniform(1, 8),
      path_length_distribution::geometric(0.75, 1, 10),
  };
  std::uint64_t seed = 100;
  for (const auto& lengths : presets) {
    for (int kind = 0; kind < 3; ++kind) {
      sim_config cfg;
      cfg.sys = {25, 3};
      cfg.compromised = spread_compromised(25, 3);
      cfg.lengths = lengths;
      cfg.message_count = 120;
      cfg.seed = ++seed;
      cfg.adversary.kind = static_cast<adversary_kind>(kind);
      if (cfg.adversary.kind == adversary_kind::partial_coverage)
        cfg.adversary.coverage_fraction = 0.3;
      out.push_back(cfg);
    }
  }
  // Honest receiver, lossy links, posterior collection, crowds mode.
  sim_config honest = out[3];
  honest.adversary.receiver_compromised = false;
  honest.collect_posteriors = true;
  out.push_back(honest);
  sim_config lossy = out[0];
  lossy.faults.drop_probability = 0.08;
  out.push_back(lossy);
  sim_config crowds = out[0];
  crowds.mode = routing_mode::hop_by_hop;
  out.push_back(crowds);
  return out;
}

TEST(TraceReplay, EqualsInlineSimulationBitForBitOnEveryPreset) {
  for (const sim_config& cfg : preset_configs()) {
    const sim_report inline_report = run_simulation(cfg);
    const sim_trace trace = capture_trace(cfg);
    const sim_report replayed = replay_trace(trace);
    SCOPED_TRACE("preset " + cfg.lengths.label() + " adversary " +
                 cfg.adversary.label());
    expect_reports_identical(inline_report, replayed);
  }
}

TEST(TraceReplay, SerializationRoundTripsByteAndBitExactly) {
  for (const sim_config& cfg : preset_configs()) {
    const sim_trace trace = capture_trace(cfg);
    std::ostringstream first;
    write_trace(trace, first);
    std::istringstream in(first.str());
    const sim_trace reread = read_trace(in);
    std::ostringstream second;
    write_trace(reread, second);
    SCOPED_TRACE("preset " + cfg.lengths.label() + " adversary " +
                 cfg.adversary.label());
    EXPECT_EQ(first.str(), second.str());
    expect_reports_identical(replay_trace(trace), replay_trace(reread));
  }
}

TEST(TraceReplay, CustomEngineSeesTheSameObservations) {
  sim_config cfg;
  cfg.sys = {20, 2};
  cfg.compromised = spread_compromised(20, 2);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 100;
  cfg.seed = 9;
  const sim_trace trace = capture_trace(cfg);

  // An evidence-blind engine: uniform over all nodes. Every scored message
  // then contributes exactly log2(N) bits.
  std::size_t calls = 0;
  const posterior_fn uniform = [&](const observation&) {
    ++calls;
    return std::vector<double>(20, 0.05);
  };
  const sim_report blind = replay_trace(trace, uniform);
  EXPECT_GT(calls, 0u);
  EXPECT_NEAR(blind.empirical_entropy_bits, std::log2(20.0), 1e-12);
  EXPECT_DOUBLE_EQ(blind.empirical_entropy_stderr, 0.0);
  // Same observation stream, different scoring: physics metrics agree with
  // the exact-engine replay.
  const sim_report exact = replay_trace(trace);
  EXPECT_EQ(blind.delivered, exact.delivered);
  EXPECT_EQ(blind.hop_histogram, exact.hop_histogram);
}

TEST(TraceFormat, RejectsVersionMismatch) {
  const sim_trace trace = capture_trace(preset_configs()[0]);
  std::ostringstream os;
  write_trace(trace, os);
  std::string text = os.str();
  const auto pos = text.find(" v1\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, " v999\n");
  std::istringstream in(text);
  try {
    (void)read_trace(in);
    FAIL() << "v999 must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("v999"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("v1"), std::string::npos);
  }
}

TEST(TraceFormat, RejectsGarbageAndTruncation) {
  std::istringstream not_a_trace("definitely,not,a,trace");
  EXPECT_THROW((void)read_trace(not_a_trace), std::invalid_argument);

  const sim_trace trace = capture_trace(preset_configs()[0]);
  std::ostringstream os;
  write_trace(trace, os);
  const std::string text = os.str();
  std::istringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW((void)read_trace(truncated), std::invalid_argument);
  std::istringstream mangled("anonpath-trace v1\nsys nonsense 2\n");
  EXPECT_THROW((void)read_trace(mangled), std::invalid_argument);

  // Signed tokens must not wrap around into huge unsigned values.
  std::string negative_seed = text;
  const auto seed_pos = negative_seed.find("seed ");
  ASSERT_NE(seed_pos, std::string::npos);
  negative_seed.replace(seed_pos, 6, "seed -");
  std::istringstream neg(negative_seed);
  EXPECT_THROW((void)read_trace(neg), std::invalid_argument);

  // A corrupted event count must fail as truncation, not as a
  // multi-gigabyte allocation.
  std::string bombed = text;
  const auto ev_pos = bombed.find("events ");
  ASSERT_NE(ev_pos, std::string::npos);
  const auto ev_end = bombed.find('\n', ev_pos);
  bombed.replace(ev_pos, ev_end - ev_pos, "events 4000000000");
  std::istringstream bomb(bombed);
  EXPECT_THROW((void)read_trace(bomb), std::invalid_argument);
}

TEST(TraceFormat, RejectsNonFiniteChurn) {
  // churn_config::valid() refuses non-finite parameters, which is the only
  // finiteness check the reader's churn section needs.
  EXPECT_FALSE((net::churn_config{HUGE_VAL, 0.5}.valid()));
  EXPECT_FALSE((net::churn_config{0.5, std::nan("")}.valid()));
  sim_config cfg = preset_configs()[0];
  cfg.faults.churn = {0.5, 0.5};
  std::ostringstream os;
  write_trace(capture_trace(cfg), os);
  const std::string text = os.str();
  const auto at = text.find("\nchurn ");
  ASSERT_NE(at, std::string::npos);
  const auto end = text.find('\n', at + 1);
  for (const char* forged : {"\nchurn 7ff0000000000000 3fe0000000000000",
                             "\nchurn 3fe0000000000000 7ff8000000000000"}) {
    std::string bad = text;
    bad.replace(at, end - at, forged);
    std::istringstream in(bad);
    try {
      (void)read_trace(in);
      FAIL() << "accepted " << forged + 1;
    } catch (const parse_error& e) {
      EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
    }
  }
}

TEST(TraceFormat, RejectsReportsFromHonestNodes) {
  // Only a compromised node files origin and relay reports. A trace that
  // says otherwise is refused as out_of_range naming the field, never
  // handed to replay as a broken precondition of the adversary view.
  sim_config cfg;
  cfg.sys = {10, 2};
  cfg.compromised = {0, 5};
  cfg.lengths = path_length_distribution::fixed(2);
  cfg.message_count = 3;
  cfg.seed = 3;
  std::ostringstream os;
  write_trace(capture_trace(cfg), os);
  const std::string text = os.str();
  // The reporter's token on "O <msg> <sender>" and on
  // "T <msg> <at> <reporter> <predecessor> <successor>".
  const std::tuple<const char*, std::size_t, const char*> forgeries[] = {
      {"\nO ", 2, "origin sender"}, {"\nT ", 3, "relay reporter"}};
  for (const auto& [tag, field, what] : forgeries) {
    const auto at = text.find(tag);
    ASSERT_NE(at, std::string::npos) << "no event " << tag + 1;
    const auto end = text.find('\n', at + 1);
    std::istringstream line(text.substr(at + 1, end - at - 1));
    std::string forged;
    std::size_t i = 0;
    for (std::string token; line >> token; ++i)
      forged += " " + (i == field ? std::string("3") : token);  // 3 is honest
    std::string bad = text;
    bad.replace(at + 1, end - at - 1, forged.substr(1));
    std::istringstream in(bad);
    try {
      (void)read_trace(in);
      FAIL() << "accepted " << forged;
    } catch (const parse_error& e) {
      EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceFormat, RejectsUnorderedEffectiveSet) {
  // The writer emits the effective set ascending; a duplicate or a
  // descending id is forged, and scoring keys its engine by this list.
  const sim_trace trace = capture_trace(preset_configs()[0]);
  std::ostringstream os;
  write_trace(trace, os);
  const std::string text = os.str();
  ASSERT_EQ(trace.compromised.size(), 3u);
  const auto at = text.find("\ncompromised 3 ");
  ASSERT_NE(at, std::string::npos);
  const auto end = text.find('\n', at + 1);
  const std::string a = std::to_string(trace.compromised[0]);
  const std::string b = std::to_string(trace.compromised[1]);
  for (const std::string& forged :
       {"compromised 3 " + b + " " + a + " " + a,
        "compromised 3 " + a + " " + a + " " + b}) {
    std::string bad = text;
    bad.replace(at + 1, end - at - 1, forged);
    std::istringstream in(bad);
    try {
      (void)read_trace(in);
      FAIL() << "accepted " << forged;
    } catch (const parse_error& e) {
      EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
      EXPECT_NE(std::string(e.what()).find("must ascend"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceFormat, WhitespaceLabelsStayParseable) {
  // from_pmf accepts arbitrary labels; the wire format is token-based, so
  // whitespace must be collapsed at write time rather than corrupting the
  // stream.
  sim_config cfg = preset_configs()[0];
  cfg.lengths = path_length_distribution::from_pmf(
      cfg.lengths.dense_pmf(), "my odd label");
  const sim_trace trace = capture_trace(cfg);
  std::ostringstream os;
  write_trace(trace, os);
  std::istringstream in(os.str());
  const sim_trace reread = read_trace(in);
  EXPECT_EQ(reread.config.lengths.label(), "my_odd_label");
  expect_reports_identical(replay_trace(trace), replay_trace(reread));
}

/// The golden fixture: a committed v1 trace. Reading it pins the format
/// version (a bump without regenerating the file fails here — that is the
/// version-bump regression test), re-serializing pins the byte layout, and
/// replaying pins the semantics against the live simulator.
TEST(TraceGolden, CommittedTraceParsesReplaysAndRoundTrips) {
  const std::string path =
      std::string(ANONPATH_TEST_DATA_DIR) + "/golden/trace_v1.trace";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream buffered;
  buffered << in.rdbuf();
  const std::string golden_text = buffered.str();

  // Format-version pin: the file must declare exactly this build's version.
  const std::string expected_header =
      "anonpath-trace v" + std::to_string(sim_trace::format_version) + "\n";
  ASSERT_EQ(golden_text.substr(0, expected_header.size()), expected_header)
      << "format_version changed without regenerating the golden trace";

  std::istringstream is(golden_text);
  const sim_trace trace = read_trace(is);
  std::ostringstream rewritten;
  write_trace(trace, rewritten);
  EXPECT_EQ(rewritten.str(), golden_text)
      << "serialization layout drifted from the committed v1 fixture";

  // Semantics: the trace's embedded config re-simulates to the same report
  // the captured events replay to.
  expect_reports_identical(run_simulation(trace.config), replay_trace(trace));

  // And the numbers are sane for the recorded scenario.
  const sim_report report = replay_trace(trace);
  EXPECT_EQ(report.submitted, trace.config.message_count);
  EXPECT_GT(report.delivered, 0u);
  EXPECT_TRUE(std::isfinite(report.empirical_entropy_bits));
}


sim_trace golden_trace() {
  std::ifstream in(std::string(ANONPATH_TEST_DATA_DIR) +
                       "/golden/trace_v1.trace",
                   std::ios::binary);
  EXPECT_TRUE(in.good());
  return read_trace(in);
}

/// Every rule of the sim_config rulebook, reached twice by one mutation of
/// the golden config: read_trace refuses the mutated trace as out_of_range
/// and run_simulation refuses the config itself as a contract violation,
/// both naming the same rule.
TEST(Rulebook, EveryRuleRefusesTheTraceAndTheRun) {
  const sim_trace golden = golden_trace();
  ASSERT_EQ(invalid_reason(golden.config), nullptr);
  const struct {
    const char* rule;
    void (*mutate)(sim_config&);
  } cases[] = {
      {"C above N", [](sim_config& c) { c.sys.compromised_count = 17; }},
      {"lengths past N - 1",
       [](sim_config& c) { c.lengths = path_length_distribution::fixed(16); }},
      {"N past the cap", [](sim_config& c) { c.sys.node_count = 1'000'001; }},
      {"compromised id past N", [](sim_config& c) { c.compromised[1] = 16; }},
      {"forward probability", [](sim_config& c) { c.forward_prob = 1.5; }},
      {"no messages", [](sim_config& c) { c.message_count = 0; }},
      {"arrival rate", [](sim_config& c) { c.arrival_rate = -1.0; }},
      {"latency", [](sim_config& c) { c.latency.jitter = HUGE_VAL; }},
      {"fault plan", [](sim_config& c) { c.faults.drop_probability = 1.0; }},
      {"retry", [](sim_config& c) { c.retry = {2, 0.0, 2.0, 1.0}; }},
      {"adversary coverage",
       [](sim_config& c) {
         c.adversary = {adversary_kind::partial_coverage, 1.5, true};
       }},
      {"threshold", [](sim_config& c) { c.identified_threshold = 5.0; }},
      {"topology for N",
       [](sim_config& c) {
         c.topology.kind = net::topology_kind::ring;
         c.topology.ring_k = 20;
       }},
      {"timing on a restricted topology",
       [](sim_config& c) {
         c.topology.kind = net::topology_kind::ring;
         c.topology.ring_k = 2;
         c.adversary.kind = adversary_kind::timing_correlator;
       }},
      {"routing k",
       [](sim_config& c) {
         c.routing.kind = net::route_select::kpaths;
         c.routing.k = 0;
       }},
      {"planned hop-by-hop",
       [](sim_config& c) {
         c.routing.kind = net::route_select::kpaths;
         c.mode = routing_mode::hop_by_hop;
       }},
      {"planned timing",
       [](sim_config& c) {
         c.routing.kind = net::route_select::kpaths;
         c.adversary.kind = adversary_kind::timing_correlator;
       }},
      {"population past the cap",
       [](sim_config& c) {
         c.session.rounds = 10;
         c.session.receiver_count = max_population + 1;
       }},
      {"session parameters",
       [](sim_config& c) {
         c.session.stream = workload::stream_backend::sketch;
       }},
      {"session hop-by-hop",
       [](sim_config& c) {
         c.session.rounds = 10;
         c.session.receiver_count = 20;
         c.mode = routing_mode::hop_by_hop;
       }},
      {"session attack threshold",
       [](sim_config& c) {
         c.session.rounds = 10;
         c.session.receiver_count = 20;
         c.session.attack = attack::attack_kind::sda;
         c.identified_threshold = 1.0;
       }},
  };
  std::set<std::string> reasons;
  for (const auto& rule : cases) {
    sim_trace mutated = golden;
    rule.mutate(mutated.config);
    const char* why = invalid_reason(mutated.config);
    ASSERT_NE(why, nullptr) << rule.rule;
    EXPECT_TRUE(reasons.insert(why).second) << rule.rule << ": " << why;

    std::ostringstream os;
    write_trace(mutated, os);
    std::istringstream is(os.str());
    try {
      (void)read_trace(is);
      ADD_FAILURE() << rule.rule << ": trace accepted";
    } catch (const parse_error& e) {
      EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
      // A length support past N - 1 needs a pmf longer than N, which the
      // reader's allocation guard refuses before the rulebook runs.
      if (std::string(rule.rule) != "lengths past N - 1")
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << rule.rule << ": " << e.what();
    }
    try {
      (void)run_simulation(mutated.config);
      ADD_FAILURE() << rule.rule << ": run accepted";
    } catch (const contract_violation& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << rule.rule << ": " << e.what();
    }
  }
}

/// capture never writes a trace replay refuses: every value of every axis
/// in the CLI's axis table, alone and inside a session cell, at the
/// threshold extremes the CLI accepts, captures a trace that reads back,
/// rewrites byte for byte, and replays bit-equal to the inline run.
TEST(Rulebook, EveryAcceptedAxisValueCapturesAReadableTrace) {
  const std::map<std::string, std::vector<std::string>> values = {
      {"--n", {"12", "24"}},
      {"--c", {"0", "3"}},
      {"--dist", {"F:0", "U:1,5", "G:0.5,1,6", "P:2,6"}},
      {"--mode", {"onion", "crowds"}},
      {"--drop", {"0", "0.3"}},
      {"--rate", {"5", "50"}},
      {"--adversary", {"full", "partial:0.3", "partial:0.5:honest", "timing"}},
      {"--topology",
       {"complete", "ring:2", "regular:4", "tiered:3", "trust:0.5"}},
      {"--routing", {"walk", "kpaths:2"}},
      {"--churn", {"0", "0.5:0.5"}},
      {"--mix-failures", {"0", "2:1:0.3"}},
      {"--retry", {"0", "2:0.3"}},
      {"--population", {"0", "30"}},
      {"--rounds", {"0", "10"}},
      {"--attack", {"none", "intersection", "sda", "bayes"}},
      {"--stream", {"exact", "sketch"}},
  };
  std::size_t captured = 0, sessions = 0;
  for (const bool session : {false, true}) {
    for_each_axis([&](const auto& axis) {
      ASSERT_EQ(values.count(axis.flag), 1u) << axis.flag << " has no values";
      for (const std::string& token : values.at(axis.flag)) {
        campaign_grid grid;
        grid.node_counts = {16};
        grid.message_count = 40;
        grid.fault_outages = {{3, 0.1, 0.3}};
        if (session) {
          grid.populations = {30};
          grid.session_rounds = {10};
          grid.attacks = {attack::attack_kind::sda};
        }
        grid.*axis.values = {axis.parse(token, axis.flag)};
        // A session attack takes only thresholds strictly inside (0, 1).
        const double lo = session ? std::nextafter(0.0, 1.0) : 0.0;
        const double hi = session ? std::nextafter(1.0, 0.0) : 1.0;
        for (const double threshold : {lo, hi}) {
          grid.identified_threshold = threshold;
          for (const scenario& s : expand_grid(grid)) {
            const sim_config cfg = scenario_config(s, grid, 7);
            if (invalid_reason(cfg) != nullptr) continue;  // CLI refuses
            std::ostringstream os;
            write_trace(capture_trace(cfg), os);
            std::istringstream is(os.str());
            try {
              const sim_trace reread = read_trace(is);
              std::ostringstream again;
              write_trace(reread, again);
              EXPECT_EQ(again.str(), os.str()) << axis.flag << ' ' << token;
              // Replaying what was read back is the inline run, bit for bit.
              SCOPED_TRACE(std::string(axis.flag) + ' ' + token);
              const sim_report inline_run = run_simulation(cfg);
              const sim_report replayed = replay_trace(reread);
              expect_reports_identical(replayed, inline_run);
              ASSERT_EQ(replayed.session.has_value(),
                        inline_run.session.has_value());
              if (inline_run.session) {
                expect_sessions_identical(*replayed.session,
                                          *inline_run.session);
                ++sessions;
              }
            } catch (const parse_error& e) {
              ADD_FAILURE() << axis.flag << ' ' << token << ": " << e.what();
            }
            ++captured;
          }
        }
      }
    });
  }
  EXPECT_GT(captured, 100u);
  EXPECT_GT(sessions, 50u);  // the session half replays too
}

}  // namespace
}  // namespace anonpath::sim
