// Corrupted-corpus hardening for the trace parser. read_trace consumes
// untrusted bytes; its contract (trace.hpp) is that ANY input either parses
// to a trace satisfying replay's preconditions or throws anonpath::
// parse_error — never a contract_violation (that exception means a
// programming error inside this repo), never a crash, never an unbounded
// allocation. The corpus is generated deterministically from two seeds: the
// committed golden trace and a synthetic trace exercising every optional
// section (churn, outages, mix failures, retry, attempts). Where the build
// exports the CLI's path (ANONPATH_CLI_BINARY), the huge-system case also
// drives `anonpath replay`.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/trace.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/text_codec.hpp"

namespace anonpath {
namespace {

std::string golden_text() {
  const std::string path =
      std::string(ANONPATH_TEST_DATA_DIR) + "/golden/trace_v1.trace";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string synthetic_text() {
  sim::sim_config cfg;
  cfg.sys = {12, 2};
  cfg.compromised = spread_compromised(12, 2);
  cfg.lengths = path_length_distribution::uniform(1, 4);
  cfg.message_count = 25;
  cfg.arrival_rate = 50.0;
  cfg.seed = 3;
  cfg.faults.drop_probability = 0.25;
  cfg.faults.churn = {0.2, 0.5};
  cfg.faults.outages = {{4, 0.05, 0.2}};
  cfg.faults.mix_failures = {2, 0.0, 0.3};
  cfg.retry = {2, 0.1, 2.0, 1.0};
  std::ostringstream os;
  sim::write_trace(sim::capture_trace(cfg), os);
  return os.str();
}

/// The property under test: one corrupted input neither crashes nor leaks a
/// contract violation. Successful parses are additionally fed to replay —
/// the parser promised the result satisfies replay's preconditions.
void expect_graceful(const std::string& text, const std::string& what,
                     int* replays_left) {
  try {
    std::istringstream is(text);
    const sim::sim_trace trace = sim::read_trace(is);
    if (replays_left != nullptr && *replays_left > 0) {
      --*replays_left;
      (void)sim::replay_trace(trace);
    }
  } catch (const parse_error&) {
    // The documented outcome for bad input.
  } catch (const contract_violation& e) {
    FAIL() << what << ": contract violation escaped the parser: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << what << ": unexpected exception type: " << e.what();
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return lines;
}

std::string join_skipping(const std::vector<std::string>& lines,
                          std::size_t skip) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == skip) continue;
    out += lines[i];
    out += '\n';
  }
  return out;
}

void fuzz_corpus(const std::string& base, const char* tag) {
  const std::vector<std::string> lines = split_lines(base);
  ASSERT_GT(lines.size(), 10u);
  int replays_left = 40;

  // Every prefix truncation at line granularity, plus mid-line cuts.
  std::size_t offset = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    offset += lines[i].size() + 1;
    expect_graceful(base.substr(0, offset),
                    std::string(tag) + ": truncated after line " +
                        std::to_string(i),
                    &replays_left);
    expect_graceful(base.substr(0, offset - lines[i].size() / 2 - 1),
                    std::string(tag) + ": cut inside line " +
                        std::to_string(i),
                    &replays_left);
  }

  // Every single-line deletion, duplication, and pairwise adjacent swap.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    expect_graceful(join_skipping(lines, i),
                    std::string(tag) + ": deleted line " + std::to_string(i),
                    &replays_left);
    expect_graceful(base + lines[i] + "\n",
                    std::string(tag) + ": re-appended line " +
                        std::to_string(i),
                    &replays_left);
    if (i + 1 < lines.size()) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[i], swapped[i + 1]);
      expect_graceful(join_skipping(swapped, swapped.size()),
                      std::string(tag) + ": swapped lines " +
                          std::to_string(i),
                      &replays_left);
    }
  }

  // Token mangling: every token of every line, four hostile substitutes.
  // "4294967295"/"99999..." probe count fields for unbounded reserves and
  // index fields for out-of-range nodes/messages; "x" and "-3" probe the
  // numeric parsers; "" (token deletion) probes truncation mid-line.
  const char* evil[] = {"x", "-3", "4294967295", "99999999999999999999", ""};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::istringstream split(lines[i]);
    std::vector<std::string> tokens;
    for (std::string tok; split >> tok;) tokens.push_back(tok);
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      for (const char* sub : evil) {
        std::string rebuilt;
        for (std::size_t k = 0; k < tokens.size(); ++k) {
          if (k == t && sub[0] == '\0') continue;
          if (!rebuilt.empty()) rebuilt += ' ';
          rebuilt += k == t ? sub : tokens[k];
        }
        std::vector<std::string> mutated = lines;
        mutated[i] = rebuilt;
        expect_graceful(join_skipping(mutated, mutated.size()),
                        std::string(tag) + ": line " + std::to_string(i) +
                            " token " + std::to_string(t) + " -> '" + sub +
                            "'",
                        nullptr);
      }
    }
  }

  // Seeded random byte corruption: flip one byte at a time.
  stats::rng gen = stats::rng::stream(0xf0220ULL, 0);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = base;
    const std::size_t at = gen.next_below(mutated.size());
    mutated[at] = static_cast<char>(gen.next_below(256));
    expect_graceful(mutated,
                    std::string(tag) + ": byte flip at " + std::to_string(at),
                    nullptr);
  }
}

TEST(TraceFuzz, GoldenCorpusNeverCrashesTheParser) {
  fuzz_corpus(golden_text(), "golden");
}

TEST(TraceFuzz, FaultAndRetryCorpusNeverCrashesTheParser) {
  fuzz_corpus(synthetic_text(), "synthetic");
}

TEST(TraceFuzz, HostileCountsAreRejectedWithoutAllocating) {
  // A forged section count advertising ~4e9 entries must be rejected by
  // validation or by the incremental-growth rule (reserve is capped; a
  // lying count hits "truncated stream"/"unknown tag" on the first missing
  // entry). The malloc itself cannot be observed portably; what is pinned
  // is that the parse returns promptly with parse_error instead of OOMing.
  const std::string base = golden_text();
  const struct {
    const char* needle;
    const char* forged;
  } cases[] = {
      {"compromised-config 2 0 8", "compromised-config 4294967295 0 8"},
      {"dist U(1,5) 6", "dist U(1,5) 4294967295"},
      {"events 66", "events 4294967295"},
      {"events 66", "events 18446744073709551615"},
      {"truths 40", "truths 4294967295"},
      {"truths 40", "truths 18446744073709551615"},
  };
  for (const auto& c : cases) {
    const std::size_t at = base.find(c.needle);
    ASSERT_NE(at, std::string::npos) << c.needle;
    std::string forged = base;
    forged.replace(at, std::string(c.needle).size(), c.forged);
    std::istringstream is(forged);
    EXPECT_THROW((void)sim::read_trace(is), parse_error) << c.needle;
  }
}

TEST(TraceFuzz, ParseErrorsCarryTheTaxonomy) {
  const auto kind_of = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)sim::read_trace(is);
    } catch (const parse_error& e) {
      EXPECT_EQ(e.source(), "trace");
      return e.kind();
    }
    ADD_FAILURE() << "parse unexpectedly succeeded";
    return parse_error_kind::io;
  };
  EXPECT_EQ(kind_of("not-a-trace v1\n"), parse_error_kind::mismatch);
  EXPECT_EQ(kind_of("anonpath-trace v2\n"), parse_error_kind::version_mismatch);
  EXPECT_EQ(kind_of("anonpath-trace v1\nsys 16"), parse_error_kind::truncated);
  const std::string base = golden_text();
  std::string mangled = base;
  mangled.replace(mangled.find("messages 40"), 11, "messages 0x");
  EXPECT_EQ(kind_of(mangled), parse_error_kind::malformed);
}


TEST(TraceFuzz, HugeSystemsAreRefusedBeforeReplayAllocates) {
  // A trace may name any N, message count or mix-failure count its u32
  // fields hold, and replay sizes its engines and event queue by them; its
  // churn and retry parameters set how many events replay runs. The
  // simulator's caps are rulebook rules, so read_trace refuses such a trace
  // as out_of_range before anything that size exists or runs — at each
  // integer cap plus one (just past it for attempts) as well as far past it,
  // and for a graph past the edge cap.
  sim::sim_config cfg;
  cfg.sys = {20, 1};
  cfg.compromised = {0};
  cfg.message_count = 30;
  cfg.faults.mix_failures.count = 2;
  cfg.faults.churn = {0.5, 0.5};
  cfg.retry = {2, 0.1, 2.0, 1.0};
  std::ostringstream os;
  sim::write_trace(sim::capture_trace(cfg), os);
  const std::string base = os.str();
  // The same run on a trust graph, then at N = 1e5: about 5e9 edges, past
  // net::max_graph_edges.
  sim::sim_config trust = cfg;
  trust.topology.kind = net::topology_kind::trust_weighted;
  std::ostringstream trust_os;
  sim::write_trace(sim::capture_trace(trust), trust_os);
  std::string huge_trust = trust_os.str();
  ASSERT_NE(huge_trust.find("\nsys 20 1\n"), std::string::npos);
  huge_trust.replace(huge_trust.find("\nsys 20 1\n"), 10, "\nsys 100000 1\n");
  // Decay 0.5 also underflows at that N; decay 1 keeps every weight at 1,
  // so only the edge count refuses this one.
  trust.topology.trust_decay = 1.0;
  std::ostringstream flat_os;
  sim::write_trace(sim::capture_trace(trust), flat_os);
  std::string huge_flat_trust = flat_os.str();
  huge_flat_trust.replace(huge_flat_trust.find("\nsys 20 1\n"), 10,
                          "\nsys 100000 1\n");
  const auto hex = [](double x) {  // " <16 hex digits>"
    std::ostringstream text;
    stats::put_hex_double(text, x);
    return text.str();
  };
  const std::pair<std::string, std::string> edits[] = {
      {"\nsys 20 1\n",
       "\nsys " + std::to_string(sim::max_sim_nodes + 1) + " 1\n"},
      {"\nsys 20 1\n", "\nsys 400000000 1\n"},
      {"\nmessages 30\n",
       "\nmessages " + std::to_string(sim::max_messages + 1) + "\n"},
      {"\nmessages 30\n", "\nmessages 4000000000\n"},
      {"\nmixfail 2 ",
       "\nmixfail " + std::to_string(sim::max_mix_failures + 1) + " "},
      {"\nmixfail 2 ", "\nmixfail 1000000000 "},
      {"\nchurn" + hex(0.5) + hex(0.5) + "\n",
       "\nchurn" + hex(1e9) + hex(1e-9) + "\n"},
      {"\nretry 2 ",
       "\nretry " + std::to_string(sim::max_attempts / 30) + " "},
      {"\nretry 2 ", "\nretry 1000000 "},
      {base, huge_trust},  // the whole trace
      {base, huge_flat_trust},
  };
  const std::string trace_path = ::testing::TempDir() + "anonpath_huge." +
                                 std::to_string(::getpid()) + ".trace";
  for (const auto& [from, to] : edits) {
    ASSERT_NE(base.find(from), std::string::npos) << from;
    std::string huge = base;
    huge.replace(huge.find(from), from.size(), to);
    std::istringstream is(huge);
    try {
      (void)sim::read_trace(is);
      ADD_FAILURE() << to << " accepted";
    } catch (const parse_error& e) {
      EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
      EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos)
          << e.what();
    }
#ifdef ANONPATH_CLI_BINARY
    // replay exits 1 with the reader's diagnostic, never std::bad_alloc.
    {
      std::ofstream out(trace_path, std::ios::binary);
      out << huge;
    }
    const std::string err_path = trace_path + ".err";
    const int status = std::system(("'" + std::string(ANONPATH_CLI_BINARY) +
                                    "' replay --in '" + trace_path +
                                    "' >/dev/null 2>'" + err_path + "'")
                                       .c_str());
    std::ifstream err(err_path);
    std::ostringstream text;
    text << err.rdbuf();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << text.str();
    EXPECT_NE(text.str().find("error: trace: "), std::string::npos)
        << text.str();
    EXPECT_EQ(text.str().find("bad_alloc"), std::string::npos) << text.str();
    std::remove(err_path.c_str());
#endif
  }
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace anonpath
