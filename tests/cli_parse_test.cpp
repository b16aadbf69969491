// Negative-parse matrix for the anonpath CLI's numeric flags. Every value
// below used to slip through atoi/atoll (garbage parsing as 0, "4x" as 4)
// or strtod without an end check; the checked parsers must refuse each with
// a nonzero exit and a diagnostic on stderr. Runs the real binary — the
// build exports its path via ANONPATH_CLI_BINARY; without it (library-only
// builds) the suite skips.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/jsonl.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/error.hpp"
#include "src/stats/text_codec.hpp"

namespace {

using namespace anonpath;

std::string cli_binary() {
#ifdef ANONPATH_CLI_BINARY
  return ANONPATH_CLI_BINARY;
#else
  return {};
#endif
}

struct run_result {
  int exit_code = -1;
  std::string stderr_text;
};

/// Runs the CLI with the given argument string, stdout discarded, stderr
/// captured to a temp file. The file name carries the pid and a counter:
/// ctest runs the CliParse cases as concurrent processes sharing TempDir,
/// and a shared name would let one case clobber another's capture.
run_result run_cli(const std::string& args) {
  static int serial = 0;
  const std::string err_path = ::testing::TempDir() + "anonpath_cli_stderr." +
                               std::to_string(::getpid()) + "." +
                               std::to_string(serial++) + ".txt";
  const std::string cmd =
      "'" + cli_binary() + "' " + args + " >/dev/null 2>'" + err_path + "'";
  const int status = std::system(cmd.c_str());
  run_result r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream err(err_path);
  std::ostringstream text;
  text << err.rdbuf();
  r.stderr_text = text.str();
  std::remove(err_path.c_str());
  return r;
}

/// Runs the CLI and returns its stdout (stderr discarded); the exit code
/// lands in *exit_code.
std::string cli_stdout(const std::string& args, int* exit_code) {
  static int serial = 0;
  const std::string out_path = ::testing::TempDir() + "anonpath_cli_stdout." +
                               std::to_string(::getpid()) + "." +
                               std::to_string(serial++) + ".txt";
  const std::string cmd = "'" + cli_binary() + "' " + args + " >'" +
                          out_path + "' 2>/dev/null";
  const int status = std::system(cmd.c_str());
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(out_path.c_str());
  return text.str();
}

/// Every case must be a usage error: exit status 2 and a diagnostic in
/// user terms, never an internal precondition message.
void expect_usage_errors(const std::vector<std::string>& cases) {
  for (const std::string& args : cases) {
    const run_result r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << "anonpath " << args << "\n" << r.stderr_text;
    EXPECT_FALSE(r.stderr_text.empty())
        << "no stderr diagnostic: anonpath " << args;
    EXPECT_EQ(r.stderr_text.find("precondition failed"), std::string::npos)
        << "anonpath " << args << "\n" << r.stderr_text;
  }
}

class CliParse : public ::testing::Test {
 protected:
  void SetUp() override {
    if (cli_binary().empty())
      GTEST_SKIP() << "ANONPATH_CLI_BINARY not set (CLI not built)";
  }
};

TEST_F(CliParse, NumericFlagMatrixRejectsBadValues) {
  // Every numeric flag x {garbage, trailing junk, negative, overflow}.
  // The command does not matter — values are checked at flag-parse time,
  // before command dispatch — but each flag rides a command that accepts
  // it so a future parse-order change cannot quietly skip the check.
  struct flag_case {
    const char* command;  // command line up to the flag under test
    const char* flag;
  };
  const std::vector<flag_case> flags = {
      {"simulate --n 20 --c 2", "--messages"},
      {"simulate --n 20 --c 2", "--seed"},
      {"campaign --n 20 --c 2", "--replicas"},
      {"campaign --n 20 --c 2", "--threads"},
      {"estimate --n 50 --c 2", "--samples"},
      {"estimate --n 50 --c 2", "--shards"},
      {"plan --n 100", "--source"},
      {"plan --n 100", "--routes"},
      {"estimate --c 2", "--n"},
      {"estimate --n 50", "--c"},
  };
  const std::vector<const char*> bad_values = {
      "foo",                     // pure garbage (atoi returned 0)
      "4x",                      // trailing junk (atoi returned 4)
      "-1",                      // negative into an unsigned flag
      "99999999999999999999999"  // out of range for every width
  };
  for (const auto& f : flags) {
    for (const char* value : bad_values) {
      const std::string args = std::string(f.command) + " " + f.flag + " '" +
                               value + "'";
      const run_result r = run_cli(args);
      EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
      EXPECT_FALSE(r.stderr_text.empty())
          << "no stderr diagnostic: anonpath " << args;
    }
  }
}

TEST_F(CliParse, FloatFlagsRejectJunkTails) {
  // strtod parses a numeric prefix; the end-pointer check must refuse what
  // it leaves behind, plus overflow and non-finite spellings.
  for (const char* value : {"foo", "2.5x", "1e", ".", "1e999", "inf", "nan"}) {
    const run_result r =
        run_cli(std::string("optimize --n 100 --mean '") + value + "'");
    EXPECT_NE(r.exit_code, 0) << "--mean accepted '" << value << "'";
    EXPECT_FALSE(r.stderr_text.empty());
  }
  // --rate is a comma-list axis; each element goes through the same
  // checked parser, which also refuses non-finite and hex spellings.
  for (const char* value :
       {"foo", "50x", "50,", "inf", "1e999", "0x1p3", "nan", "20,inf"}) {
    const run_result r = run_cli(
        std::string("simulate --n 20 --c 2 --rate '") + value + "'");
    EXPECT_NE(r.exit_code, 0) << "--rate accepted '" << value << "'";
    EXPECT_FALSE(r.stderr_text.empty());
  }
  expect_usage_errors({
      "campaign --n 16 --c 1 --messages 20 --replicas 1 --rate inf",
      "campaign --n 16 --c 1 --messages 20 --replicas 1 --drop 1e999",
      "simulate --n 16 --c 1 --messages 20 --threshold nan",
      "simulate --n 16 --c 1 --messages 20 --threshold inf",
      "capture --n 16 --c 1 --messages 20 --churn inf",
      "capture --n 16 --c 1 --messages 20 --churn 0.5:inf",
      "simulate --n 16 --c 1 --messages 20 --retry 2:nan",
      "simulate --n 16 --c 1 --messages 20 --adversary partial:nan",
      "simulate --n 16 --c 1 --messages 20 --topology trust:inf",
      "attack --users 200 --rounds 30 --attack sda --send-rate nan",
  });
}

TEST_F(CliParse, DistSpecsAreChecked) {
  // Malformed, non-integral, out-of-order or oversized specs are usage
  // errors: never a silent reinterpretation (F:2.7 as F(2)) and never a
  // contract_violation escaping the distribution factories.
  std::vector<std::string> cases;
  for (const char* spec :
       {"F:foo", "F:2.7", "U:5,2", "U:1,nan", "F:-1", "F:", "F:3,4", "X:3",
        "F3", "G:1,1,4", "G:0.5,4,2", "G:nan,1,4", "P:0,5", "P:inf,5",
        "P:1e6,5", "F:4000000000"})
    for (const char* command : {"degree --n 50", "simulate --n 20 --c 2"})
      cases.push_back(std::string(command) + " --dist '" + spec + "'");
  expect_usage_errors(cases);
  EXPECT_EQ(run_cli("degree --n 50 --dist G:0.5,1,6").exit_code, 0);
  EXPECT_EQ(run_cli("degree --n 50 --dist P:2.5,8").exit_code, 0);
}

TEST_F(CliParse, ScalarCommandsTakeOneValuePerAxis) {
  // A comma list on a one-scenario command must not run just its first
  // value.
  expect_usage_errors({
      "simulate --n 10,20 --messages 20",
      "capture --n 10,20 --messages 20",
      "degree --n 10,20",
      "estimate --n 10,20 --samples 100",
      "estimate --n 20 --c 1,2 --samples 100",
      "degree --n 50 --dist F:3 --dist F:4",
      "simulate --n 20 --messages 20 --rate 5,500",
      "attack --users 200 --rounds 30 --attack sda,bayes",
      "plan --n 100 --routing walk,kpaths",
  });
}

TEST_F(CliParse, SimulateHonoursRate) {
  // simulate is a one-cell campaign, so --rate reaches the run: the report
  // names it, and under churn the traffic span changes what gets through.
  for (const char* flags : {"", " --churn 0.5:0.5"}) {
    int rc5 = -1, rc500 = -1;
    const std::string base =
        std::string("simulate --n 20 --c 2 --messages 200 --seed 3") + flags;
    const std::string slow = cli_stdout(base + " --rate 5", &rc5);
    const std::string fast = cli_stdout(base + " --rate 500", &rc500);
    EXPECT_EQ(rc5, 0);
    EXPECT_EQ(rc500, 0);
    EXPECT_NE(slow, fast) << flags;
    if (*flags != '\0')  // beyond the header: the metrics move too
      EXPECT_NE(slow.substr(slow.find('\n')), fast.substr(fast.find('\n')));
  }
}

TEST_F(CliParse, CampaignAxisSmokesAreThreadAndTraceInvariant) {
  // Stream axis: sketch cells ride next to exact cells, thread-invariant,
  // and the CSV grows the stream column only when the axis is swept.
  const std::string stream =
      "campaign --n 20 --c 2 --dist U:1,4 --population 40 --rounds 30 "
      "--attack sda --stream exact,sketch --messages 300 --replicas 2 "
      "--seed 7";
  // kpaths routing axis: thread- and trace-pipeline invariant like every
  // other axis; the routing CSV column appears only here.
  const std::string routed =
      "campaign --n 24 --c 2 --dist U:1,5 --topology regular:4 "
      "--routing walk,kpaths:3 --messages 150 --replicas 4 --seed 7";
  const struct {
    std::string reference, variant, column;
  } cases[] = {
      {stream + " --threads 8", stream + " --threads 1", ",stream"},
      {routed + " --threads 8", routed + " --threads 1 --via-trace",
       ",routing"},
  };
  for (const auto& c : cases) {
    int rc_ref = -1, rc_var = -1;
    const std::string ref = cli_stdout(c.reference, &rc_ref);
    const std::string var = cli_stdout(c.variant, &rc_var);
    ASSERT_EQ(rc_ref, 0) << c.reference;
    ASSERT_EQ(rc_var, 0) << c.variant;
    EXPECT_EQ(std::count(ref.begin(), ref.end(), '\n'), 3) << ref;
    EXPECT_NE(ref.find(c.column), std::string::npos) << ref;
    EXPECT_EQ(ref, var) << c.variant;
  }
}

TEST_F(CliParse, ScalarCommandsCheckCrossFieldRules) {
  // Each flag parses on its own; together they break an engine
  // precondition, which must surface as a usage error before the engine
  // runs.
  expect_usage_errors({
      "degree --n 3",               // default F:3 cannot fit N = 3
      "degree --n 4 --dist F:2",    // the closed form needs N >= 5
      "degree --n 50 --dist F:50",  // longer than a simple path
      "estimate --n 5 --c 4",       // default U:1,10 cannot fit N = 5
      "estimate --n 5 --c 6 --dist F:2 --samples 100",  // C > N
      "estimate --n 8 --c 2 --dist U:1,8 --samples 100",
      "optimize --n 3 --mean 2",    // closed form again
      "optimize --n 5 --mean 10",   // no strategy on N = 5 has E[L] = 10
      "optimize --n 50 --mean -1",
      "figures --n 3",
  });
  // C == N is a legitimate (zero-anonymity) estimate, not misuse.
  EXPECT_EQ(run_cli("estimate --n 5 --c 5 --dist F:2 --samples 100").exit_code,
            0);
}

TEST_F(CliParse, HugeSystemsAreRefusedBeforeAllocating) {
  // Sizes past a command's --n cap used to reach the allocator and end in
  // "error: std::bad_alloc" (exit 1); they are usage errors that name the
  // cap, raised before anything N-sized exists.
  const std::vector<std::string> cases = {
      "estimate --n 4294967295",
      "estimate --n 100000000",
      "estimate --n 1000001 --c 2 --samples 10",
      "estimate --n 4294967295 --topology ring:2",
      "simulate --n 4294967295",
      "capture --n 4294967295 --out /dev/null",
      "campaign --n 30,4294967295 --c 1 --messages 10 --replicas 1",
      "plan --n 4294967295 --topology regular:2",
      "plan --n 100000000 --topology regular:2",
      // Population-sized state and workload length have caps of their own.
      "campaign --n 20 --population 4000000000 --rounds 10 --attack sda",
      "simulate --n 20 --population 10000001 --rounds 10 --attack sda",
      "attack --attack sda --users 4000000000 --rounds 10",
      "attack --attack sda --users 1000 --population 10000001 --rounds 10",
      "attack --attack sda --users 1000 --rounds 4000000000",
      "attack --attack sda --users 1000 --rounds 1000000 --round-size 101",
      "figures --n 100000000",
      "figures --n 10001",
      // So do the message count and the seeded mix-failure episodes.
      "simulate --n 24 --c 2 --messages 4000000000",
      "simulate --n 24 --c 2 --messages 400000000",
      "simulate --n 24 --c 2 --messages 1000001",
      "capture --n 24 --c 2 --messages 1000001 --out /dev/null",
      "campaign --n 24 --c 2 --messages 4000000000 --replicas 1",
      "simulate --n 24 --c 2 --messages 50 --mix-failures 1000000000",
      "campaign --n 24 --c 2 --messages 50 --mix-failures 0,1000001 "
      "--replicas 1",
      // And the event load: expected churn transitions over the traffic
      // span, and worst-case attempts (--messages x (retries + 1)).
      "simulate --n 24 --c 2 --churn 1e9:1e-9",
      "simulate --n 24 --c 2 --retry 1000000:1e-6:1:1e-6 --drop 0.99",
      "simulate --n 24 --c 2 --messages 1000000 --retry 2",
      "capture --n 24 --c 2 --churn 1e9:1e-9 --out /dev/null",
      "campaign --n 24 --c 2 --messages 50 --churn 0,1e9:1e-9 --replicas 1",
      "campaign --n 24 --c 2 --messages 50 --retry 0,100000 --replicas 1",
      "merge --n 24 --c 2 --messages 50 --churn 1e9:1e-9 --replicas 1 "
      "--input /nonexistent.ckpt",
      // And a graph's edge count (net::max_graph_edges): each of these
      // would ask for about 80 GB of edges.
      "plan --n 100000 --topology complete",
      "simulate --n 100000 --topology trust:0.5 --messages 10",
      "simulate --n 100000 --routing kpaths:2 --messages 10",
      "estimate --n 100000 --topology trust:0.5 --samples 10",
      "campaign --n 100000 --topology tiered:2 --messages 10 --replicas 1",
      // And the scoring work on a graph (sim::max_scoring_work): worst-case
      // attempts x (longest route + 1) x arcs, N - 1 the longest planned
      // route.
      "simulate --n 2000 --c 2 --routing kpaths:2 --messages 10",
      "capture --n 1000 --c 2 --routing kpaths:2 --messages 16 --out /dev/null",
      "simulate --n 100000 --c 2 --topology regular:4 --messages 100000",
      "simulate --n 1000 --c 2 --routing kpaths:2 --messages 8 --retry 1",
      // A campaign refuses such a cell, as it does the event-load caps,
      // instead of skipping it as infeasible.
      "campaign --n 30,2000 --c 2 --routing kpaths:2 --messages 10 "
      "--replicas 1",
  };
  expect_usage_errors(cases);
  for (const std::string& args : cases)
    EXPECT_NE(run_cli(args).stderr_text.find("too large"), std::string::npos)
        << "anonpath " << args;
}

TEST_F(CliParse, PlannedRouteCaptureReplaysInline) {
  // kpaths routing on regular:4: capture -> replay reproduces inline
  // simulate byte for byte (this runs the random-regular generator and the
  // replay scoring path), and the invalid routing combinations fail.
  const std::string run =
      "--n 30 --c 3 --dist U:1,6 --topology regular:4 --routing kpaths:4 "
      "--messages 200 --seed 9";
  const std::string trace_path = ::testing::TempDir() + "anonpath_kp." +
                                 std::to_string(::getpid()) + ".trace";
  int rc_inline = -1, rc_capture = -1, rc_replay = -1;
  const std::string inline_out = cli_stdout("simulate " + run, &rc_inline);
  (void)cli_stdout("capture " + run + " --out '" + trace_path + "'",
                   &rc_capture);
  const std::string replayed =
      cli_stdout("replay --in '" + trace_path + "'", &rc_replay);
  std::remove(trace_path.c_str());
  ASSERT_EQ(rc_inline, 0);
  ASSERT_EQ(rc_capture, 0);
  ASSERT_EQ(rc_replay, 0);
  EXPECT_FALSE(inline_out.empty());
  EXPECT_EQ(inline_out, replayed);
  for (const char* args :
       {"simulate --n 20 --mode crowds --routing kpaths --messages 50",
        "simulate --n 20 --routing kpaths:0 --messages 50"})
    EXPECT_NE(run_cli(args).exit_code, 0) << "accepted: anonpath " << args;
}

/// Reads a whole file ("" when it does not exist).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The decimal number that follows `label` in `text` (0 when absent).
unsigned long long number_after(const std::string& text,
                                const std::string& label) {
  const std::size_t at = text.find(label);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + label.size(), nullptr, 10);
}

TEST_F(CliParse, StreamingInferenceAtPopulationScale) {
  // Online sketch-backed disclosure at 1e6 users: the sharded accumulators
  // (exact and sketch) must agree with round-by-round online ingestion bit
  // for bit, the count-min bound must hold with no undercounts, and the
  // sketch engine must be strictly smaller than the exact accumulator
  // (memory sublinear in the population).
  const run_result r =
      run_cli("attack --users 1000000 --rounds 3000 --round-size 8 "
              "--attack sda --seed 42 --threads 8 --stream sketch "
              "--every 500");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  for (const char* line :
       {"accumulator cross-check (8 threads over 3000 rounds): identical",
        "online==offline: final posterior bit-identical", "no undercounts",
        "matches exact"})
    EXPECT_NE(r.stderr_text.find(line), std::string::npos)
        << "missing '" << line << "' in\n" << r.stderr_text;
  const unsigned long long sketch =
      number_after(r.stderr_text, "# memory: sketch engine ");
  const unsigned long long exact =
      number_after(r.stderr_text, " exact accumulator ");
  EXPECT_GT(sketch, 0u) << r.stderr_text;
  EXPECT_LT(sketch, exact) << r.stderr_text;
  // A sketch backend without the sda attack is refused loudly.
  EXPECT_NE(run_cli("attack --users 1000 --rounds 50 --attack bayes "
                    "--stream sketch")
                .exit_code,
            0);
}

TEST_F(CliParse, ZeroWhereItIsMeaningless) {
  // 0 parses fine but is rejected by the range checks — the old atoi bug
  // made garbage indistinguishable from an explicit 0, so both must fail.
  for (const char* args :
       {"simulate --n 20 --c 2 --messages 0",
        "campaign --n 20 --c 2 --replicas 0",
        "optimize --n 50 --c 2 --samples 0", "plan --n 100 --routes 0"}) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty());
  }
}

TEST_F(CliParse, RoutingFlagValidation) {
  for (const char* args :
       {"simulate --n 20 --c 2 --routing bogus",
        "simulate --n 20 --c 2 --routing kpaths:0",
        "simulate --n 20 --c 2 --routing kpaths:65",
        "simulate --n 20 --c 2 --routing kpaths:4x",
        // kpaths needs source routing and a non-timing adversary.
        "simulate --n 20 --c 2 --mode hop_by_hop --routing kpaths",
        "simulate --n 20 --c 2 --adversary timing --routing kpaths",
        // estimate/replay are clique-analytic surfaces: no planned routes.
        "estimate --n 50 --c 2 --routing kpaths",
        // There is no dedup setting to turn off, on any engine.
        "estimate --n 50 --c 2 --topology ring:2 --no-dedup"}) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty());
  }
}

TEST_F(CliParse, StreamFlagValidation) {
  for (const char* args : {
           // unknown backend label
           "simulate --n 20 --c 2 --stream dense",
           "attack --users 200 --rounds 30 --attack sda --stream dense",
           // sketch state exists for the counting attack (sda) only
           "attack --users 200 --rounds 30 --attack bayes --stream sketch",
           "attack --users 200 --rounds 30 --attack intersection "
           "--stream sketch",
           "simulate --n 20 --c 2 --messages 30 --population 100 --rounds 30 "
           "--attack intersection --stream sketch",
           // simulate/attack take one backend, not an axis list
           "simulate --n 20 --c 2 --messages 30 --population 100 --rounds 30 "
           "--attack sda --stream exact,sketch",
           "attack --users 200 --rounds 30 --attack sda --stream exact,sketch",
           // --stream without a session to back it
           "simulate --n 20 --c 2 --messages 30 --stream sketch",
           // a sketch axis needs sda on the --attack axis
           "campaign --n 16 --c 1 --messages 30 --replicas 1 --population 100 "
           "--rounds 30 --attack intersection --stream sketch",
           // commands with no disclosure accumulator at all
           "estimate --n 50 --c 2 --stream exact",
           "plan --n 100 --stream sketch",
       }) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty())
        << "no stderr diagnostic: anonpath " << args;
  }
  // Positive controls: the sketch backend on its intended surfaces.
  EXPECT_EQ(run_cli("attack --users 200 --rounds 30 --attack sda "
                    "--stream sketch")
                .exit_code,
            0);
  EXPECT_EQ(run_cli("simulate --n 20 --c 2 --messages 30 --population 100 "
                    "--rounds 30 --attack sda --stream sketch --seed 5")
                .exit_code,
            0);
}

TEST_F(CliParse, ShardAndMergeFlagValidation) {
  const std::string grid = "--n 16,24 --c 1,2 --messages 40 --replicas 1";
  const std::vector<std::string> cases = {
           // --shard spec must be i/n with i < n, n >= 1.
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard foo",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 3",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 3/3",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 1/0",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 1/2x",
           // a shard run without a journal has no output to merge.
           "campaign " + grid + " --shard 0/2",
           // more shards than cells: some shards would be empty.
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 0/64",
           // --shard/--input belong to campaign/merge only.
           "simulate --n 20 --c 2 --shard 0/2",
           "estimate --n 50 --c 2 --input /tmp/x.ckpt",
           "merge " + grid,  // no --input
           "merge " + grid + " --input /tmp/x.ckpt --shard 0/2",
           "merge " + grid + " --input /tmp/x.ckpt --resume",
       };
  for (const std::string& args : cases) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty())
        << "no stderr diagnostic: anonpath " << args;
  }
}

TEST_F(CliParse, ShardedCampaignMergesToUnshardedCsv) {
  // End-to-end through the real binary: 3 shard runs + merge reproduce the
  // unsharded CSV byte for byte, and a merge missing a shard exits nonzero.
  const std::string dir = ::testing::TempDir();
  const std::string grid =
      "--n 16,24 --c 1,2 --messages 40 --replicas 1 --seed 11";
  const std::string clean_csv = dir + "anonpath_cli_clean.csv";
  ASSERT_EQ(std::system(("'" + cli_binary() + "' campaign " + grid + " > '" +
                         clean_csv + "' 2>/dev/null")
                            .c_str()),
            0);
  std::string inputs;
  for (int i = 0; i < 3; ++i) {
    const std::string ckpt =
        dir + "anonpath_cli_shard" + std::to_string(i) + ".ckpt";
    inputs += " --input '" + ckpt + "'";
    EXPECT_EQ(run_cli("campaign " + grid + " --shard " + std::to_string(i) +
                      "/3 --checkpoint '" + ckpt + "'")
                  .exit_code,
              0);
  }
  const std::string merged_csv = dir + "anonpath_cli_merged.csv";
  ASSERT_EQ(std::system(("'" + cli_binary() + "' merge " + grid + inputs +
                         " > '" + merged_csv + "' 2>/dev/null")
                            .c_str()),
            0);
  std::ifstream a(clean_csv), b(merged_csv);
  std::ostringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
  // Drop shard 1 from the input list: the merge must refuse, not emit a
  // CSV with silently absent cells.
  const run_result partial = run_cli(
      "merge " + grid + " --input '" + dir + "anonpath_cli_shard0.ckpt' " +
      "--input '" + dir + "anonpath_cli_shard2.ckpt'");
  EXPECT_NE(partial.exit_code, 0);
  EXPECT_NE(partial.stderr_text.find("missing shard"), std::string::npos)
      << partial.stderr_text;
  for (int i = 0; i < 3; ++i)
    std::remove(
        (dir + "anonpath_cli_shard" + std::to_string(i) + ".ckpt").c_str());
  std::remove(clean_csv.c_str());
  std::remove(merged_csv.c_str());
}

TEST_F(CliParse, ObsFlagValidation) {
  for (const char* args : {
           // --metrics/--progress instrument the run-shaped commands only;
           // the pure-analytic and trace surfaces must refuse loudly.
           "degree --n 50 --c 2 --metrics /tmp/m.jsonl",
           "estimate --n 50 --c 2 --metrics /tmp/m.jsonl",
           "optimize --n 50 --progress",
           "figures --progress",
           "capture --n 16 --c 1 --messages 10 --metrics /tmp/m.jsonl",
           "replay --in /tmp/x.trace --progress",
           // a value is required, and an empty one is an empty path.
           "simulate --n 20 --c 2 --metrics",
           "simulate --n 20 --c 2 --metrics=",
       }) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty())
        << "no stderr diagnostic: anonpath " << args;
  }
  // Positive controls: both spellings write a parseable snapshot, and
  // --progress emits its greppable heartbeat on stderr.
  const std::string dir = ::testing::TempDir();
  const std::string metrics = dir + "anonpath_cli_metrics.jsonl";
  std::remove(metrics.c_str());
  EXPECT_EQ(run_cli("simulate --n 12 --c 2 --messages 20 --seed 3 "
                    "--metrics '" + metrics + "'")
                .exit_code,
            0);
  {
    std::ifstream in(metrics);
    std::string header;
    ASSERT_TRUE(std::getline(in, header)) << "metrics file missing or empty";
    EXPECT_NE(header.find("\"format\":\"anonpath-metrics\""),
              std::string::npos)
        << header;
  }
  std::remove(metrics.c_str());
  const run_result progress = run_cli(
      "campaign --n 16 --c 1 --messages 20 --replicas 2 --progress "
      "--metrics='" + metrics + "'");
  EXPECT_EQ(progress.exit_code, 0);
  EXPECT_NE(progress.stderr_text.find("# progress: campaign cells"),
            std::string::npos)
      << progress.stderr_text;
  std::remove(metrics.c_str());
}

TEST_F(CliParse, SimulateMetricsCountWalkMemoLookups) {
  // Every built-in engine scores through the per-run observation memo, so
  // a restricted-topology and a clique simulate both report one
  // posterior.obs_memo_* lookup per observed message (the full coalition
  // observes every delivered one). Only the clique engine has a layout
  // memo behind it, under the attack.memo_* names.
  const std::string metrics =
      ::testing::TempDir() + "anonpath_obs_memo." + std::to_string(::getpid()) +
      ".jsonl";
  const std::string hits = "\"name\":\"posterior.obs_memo_hits\",\"value\":";
  const std::string misses =
      "\"name\":\"posterior.obs_memo_misses\",\"value\":";
  const std::string delivered =
      "\"name\":\"sim.messages_delivered\",\"value\":";
  const std::string layout = "\"name\":\"attack.memo_hits\",\"value\":";
  for (const std::string topology : {"--topology regular:4 ", ""}) {
    ASSERT_EQ(run_cli("simulate --n 30 --c 3 --dist U:1,6 " + topology +
                      "--messages 300 --seed 9 --metrics '" + metrics + "'")
                  .exit_code,
              0)
        << topology;
    const std::string snapshot = slurp(metrics);
    std::remove(metrics.c_str());
    ASSERT_NE(snapshot.find(hits), std::string::npos) << snapshot;
    ASSERT_NE(snapshot.find(misses), std::string::npos) << snapshot;
    EXPECT_GT(number_after(snapshot, hits), 0u) << snapshot;
    EXPECT_GT(number_after(snapshot, misses), 0u) << snapshot;
    EXPECT_EQ(number_after(snapshot, hits) + number_after(snapshot, misses),
              number_after(snapshot, delivered))
        << snapshot;
    EXPECT_EQ(number_after(snapshot, delivered), 300u) << snapshot;
    ASSERT_NE(snapshot.find(layout), std::string::npos) << snapshot;
    EXPECT_EQ(number_after(snapshot, layout) > 0, topology.empty())
        << snapshot;
  }
}

TEST_F(CliParse, WriteFailuresExitNonzeroWithDiagnostic) {
  // Output that cannot land must never yield exit 0. /dev/full accepts the
  // open and fails the flush (ENOSPC); a pipe whose reader is gone raises
  // EPIPE. Both are checked at exit via the stream/stdout state. Skip where
  // /dev/full does not fail writes (non-Linux).
  if (std::system("sh -c 'echo x > /dev/full' 2>/dev/null") == 0)
    GTEST_SKIP() << "/dev/full does not reject writes here";
  struct io_case {
    const char* tag;
    std::string cmd;
  };
  const std::string base =
      "'" + cli_binary() + "' campaign --n 16 --c 1 --messages 30";
  const std::vector<io_case> cases = {
      {"csv to full disk", base + " > /dev/full"},
      // The trace (~160K) overflows the 64K pipe buffer, so the writer is
      // guaranteed to hit EPIPE once `true` exits — a short CSV piped to a
      // fast-exiting reader can legitimately land in the buffer and win.
      {"closed pipe",
       "set -o pipefail; '" + cli_binary() +
           "' capture --n 16 --c 1 --messages 2000 | true"},
      {"checkpoint on full disk", base + " --checkpoint /dev/full >/dev/null"},
      {"trace on full disk",
       "'" + cli_binary() +
           "' capture --n 16 --c 1 --messages 30 --out /dev/full >/dev/null"},
      // --metrics writes are checked like any result-bearing output: a
      // snapshot that cannot land must fail the run, not vanish quietly.
      {"metrics on full disk", base + " --metrics /dev/full >/dev/null"},
      {"simulate metrics on full disk",
       "'" + cli_binary() +
           "' simulate --n 16 --c 1 --messages 30 --metrics /dev/full "
           ">/dev/null"},
      {"metrics to unwritable dir",
       base + " --metrics /nonexistent-dir/m.jsonl >/dev/null"},
  };
  for (const auto& c : cases) {
    static int serial = 0;
    const std::string err_path = ::testing::TempDir() +
                                 "anonpath_cli_io_stderr." +
                                 std::to_string(serial++) + ".txt";
    const std::string cmd =
        "bash -c \"" + c.cmd + "\" 2>'" + err_path + "'";
    const int status = std::system(cmd.c_str());
    const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    EXPECT_NE(rc, 0) << c.tag << " exited 0";
    std::ifstream err(err_path);
    std::ostringstream text;
    text << err.rdbuf();
    EXPECT_NE(text.str().find("error"), std::string::npos)
        << c.tag << ": no stderr diagnostic, got: " << text.str();
    std::remove(err_path.c_str());
  }
}

TEST_F(CliParse, ThresholdOutsideTheUnitIntervalIsRefused) {
  // --threshold is a rulebook rule: a value outside [0, 1] used to run
  // ("identified fraction: 100.00%" at -1) or, through capture, write a
  // trace that replay refused. Both ends of [0, 1] stay valid.
  const std::string trace_path = ::testing::TempDir() + "anonpath_thr." +
                                 std::to_string(::getpid()) + ".trace";
  std::remove(trace_path.c_str());
  expect_usage_errors({
      "simulate --n 20 --messages 50 --threshold -1",
      "capture --n 20 --messages 50 --threshold 5 --out '" + trace_path + "'",
      "campaign --n 20 --messages 50 --replicas 1 --threshold 1.5",
  });
  EXPECT_FALSE(std::ifstream(trace_path).good()) << "refused capture wrote";
  for (const char* threshold : {"0", "1"}) {
    const std::string run = std::string("--n 20 --messages 50 --threshold ") +
                            threshold;
    int rc_inline = -1, rc_capture = -1, rc_replay = -1;
    const std::string inline_out = cli_stdout("simulate " + run, &rc_inline);
    (void)cli_stdout("capture " + run + " --out '" + trace_path + "'",
                     &rc_capture);
    const std::string replayed =
        cli_stdout("replay --in '" + trace_path + "'", &rc_replay);
    EXPECT_EQ(rc_inline, 0) << run;
    EXPECT_EQ(rc_capture, 0) << run;
    EXPECT_EQ(rc_replay, 0) << run;
    EXPECT_EQ(inline_out, replayed) << run;
  }
  std::remove(trace_path.c_str());
}

/// The parse_error kind a reader throws on `text`; io when it accepts.
template <class Read>
parse_error_kind kind_of(Read read) {
  try {
    read();
  } catch (const parse_error& e) {
    return e.kind();
  }
  return parse_error_kind::io;
}

TEST_F(CliParse, OneNumberGrammarForEveryReader) {
  // The same tokens through the codec and each of its callers: a trace
  // field, a checkpoint record, a CLI flag and a metrics JSONL value. An
  // integer is decimal digits only and a double is 16 lowercase hex
  // digits, so every caller fails each token with the same kind. In the
  // trace and checkpoint formats whitespace delimits tokens, so " 20" is
  // tested where it can be one token: the codec, the CLI and the JSONL.
  const std::string golden = [] {
    std::ifstream in(std::string(ANONPATH_TEST_DATA_DIR) +
                         "/golden/trace_v1.trace",
                     std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }();
  std::ostringstream journal;
  sim::write_checkpoint_header(journal, 1);
  sim::append_checkpoint_cell(journal, 0, sim::campaign_cell{});
  sim::append_checkpoint_cell(journal, 1, sim::campaign_cell{});
  const std::string ckpt = journal.str();
  // Token k of the first (non-final) cell record replaced by `tok`.
  const auto mangled_record = [&ckpt](std::size_t k, const std::string& tok) {
    const std::size_t start = ckpt.find("cell 0");
    std::size_t at = start;
    for (std::size_t i = 0; i < k; ++i) at = ckpt.find(' ', at) + 1;
    return ckpt.substr(0, at) + tok + ckpt.substr(ckpt.find(' ', at));
  };
  const std::size_t submitted_token = 3, mean_token = 6;
  ASSERT_EQ(mangled_record(mean_token, "0000000000000000"), ckpt);

  using k = parse_error_kind;
  const struct {
    std::string token;
    parse_error_kind as_integer, as_hex;
  } cases[] = {
      {"+20", k::malformed, k::malformed},
      {" 20", k::malformed, k::malformed},
      {"-1", k::malformed, k::malformed},
      {"0x10", k::malformed, k::malformed},
      {"18446744073709551616", k::out_of_range, k::malformed},
      {"3fd000000000000", k::malformed, k::malformed},    // 15 hex digits
      {"3FD0000000000000", k::malformed, k::malformed},   // uppercase
  };
  for (const auto& c : cases) {
    const std::string& tok = c.token;
    SCOPED_TRACE("token '" + tok + "'");
    EXPECT_EQ(kind_of([&] { (void)stats::read_u64(tok, "test", "field"); }),
              c.as_integer);
    EXPECT_EQ(kind_of([&] { (void)stats::read_hex64(tok, "test", "field"); }),
              c.as_hex);
    // Metrics JSONL counter value.
    std::istringstream jsonl(
        "{\"format\":\"anonpath-metrics\",\"version\":1}\n"
        "{\"kind\":\"counter\",\"name\":\"x\",\"value\":" + tok + "}\n");
    EXPECT_EQ(kind_of([&] { (void)obs::read_metrics_jsonl(jsonl); }),
              c.as_integer);
    // CLI flag: a usage error whose diagnostic names the kind.
    const run_result r =
        run_cli("simulate --n '" + tok + "' --messages 10");
    EXPECT_EQ(r.exit_code, 2) << r.stderr_text;
    EXPECT_NE(r.stderr_text.find(c.as_integer == k::out_of_range
                                     ? "is out of range"
                                     : "is not a decimal integer"),
              std::string::npos)
        << r.stderr_text;
    if (tok.front() == ' ') continue;
    // Trace: an integer field and a double field.
    std::string trace = golden;
    trace.replace(trace.find("messages 40"), 11, "messages " + tok);
    std::istringstream trace_int(trace);
    EXPECT_EQ(kind_of([&] { (void)sim::read_trace(trace_int); }),
              c.as_integer);
    trace = golden;
    trace.replace(trace.find("forward 3fe8000000000000"), 24, "forward " + tok);
    std::istringstream trace_hex(trace);
    EXPECT_EQ(kind_of([&] { (void)sim::read_trace(trace_hex); }), c.as_hex);
    // Checkpoint: a count and a summary word of a non-final record.
    std::istringstream ckpt_int(mangled_record(submitted_token, tok));
    EXPECT_EQ(kind_of([&] { (void)sim::read_checkpoint(ckpt_int, 1, 10); }),
              c.as_integer);
    std::istringstream ckpt_hex(mangled_record(mean_token, tok));
    EXPECT_EQ(kind_of([&] { (void)sim::read_checkpoint(ckpt_hex, 1, 10); }),
              c.as_hex);
  }
}

TEST_F(CliParse, ShardedCampaignMergesToTheUnshardedGolden) {
  // The 48-cell grid split into 3 shard runs at mixed thread counts: the
  // merged CSV equals the unsharded run byte for byte, the per-shard
  // metrics sum to the full grid's counts, the merged journal resumes as a
  // complete unsharded run, and incomplete or overlapping shard sets are
  // refused.
  const std::string dir = ::testing::TempDir() + "anonpath_shards." +
                          std::to_string(::getpid()) + ".";
  const std::string grid =
      "--n 30,60 --c 1,4,8 --dist F:3 --dist U:1,8 --mode onion,crowds "
      "--drop 0,0.05 --messages 200 --replicas 8 --seed 7";
  int rc = -1;
  const std::string golden = cli_stdout("campaign " + grid + " --threads 1",
                                        &rc);
  ASSERT_EQ(rc, 0);
  ASSERT_EQ(std::count(golden.begin(), golden.end(), '\n'), 49);
  std::string inputs;
  for (int i = 0; i < 3; ++i) {
    const std::string ckpt = dir + "shard" + std::to_string(i) + ".ckpt";
    inputs += " --input '" + ckpt + "'";
    EXPECT_EQ(run_cli("campaign " + grid + " --threads " +
                      (i == 0 ? "1" : "8") + " --shard " + std::to_string(i) +
                      "/3 --checkpoint '" + ckpt + "' --metrics '" + ckpt +
                      ".metrics'")
                  .exit_code,
              0);
  }
  const std::string merged_ckpt = dir + "merged.ckpt";
  const std::string merged_metrics = dir + "merged-metrics.jsonl";
  EXPECT_EQ(cli_stdout("merge " + grid + inputs + " --checkpoint '" +
                           merged_ckpt + "' --metrics '" + merged_metrics +
                           "'",
                       &rc),
            golden);
  EXPECT_EQ(rc, 0);
  const std::string metrics = slurp(merged_metrics);
  EXPECT_NE(metrics.find("\"name\":\"campaign.cells_completed\",\"value\":48"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"name\":\"campaign.runs_completed\",\"value\":384"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(cli_stdout("campaign " + grid + " --threads 8 --checkpoint '" +
                           merged_ckpt + "' --resume",
                       &rc),
            golden);
  EXPECT_EQ(rc, 0);
  const std::string shard0 = " --input '" + dir + "shard0.ckpt'";
  const std::string shard1 = " --input '" + dir + "shard1.ckpt'";
  EXPECT_NE(run_cli("merge " + grid + shard0 + shard1).exit_code, 0)
      << "missing shard accepted";
  EXPECT_NE(run_cli("merge " + grid + shard0 + shard1 + shard1).exit_code, 0)
      << "duplicate shard accepted";
  for (int i = 0; i < 3; ++i) {
    const std::string ckpt = dir + "shard" + std::to_string(i) + ".ckpt";
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".metrics").c_str());
  }
  std::remove(merged_ckpt.c_str());
  std::remove(merged_metrics.c_str());
}

/// Exit status of a shell command line (-1 when it did not exit).
int shell_status(const std::string& cmd) {
  const int status = std::system(("bash -c \"" + cmd + "\"").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(CliParse, WriteFailurePathsFailLoudly) {
  // Every output path exits nonzero when its bytes cannot land: a
  // benchmark's JSON in a missing directory, and the campaign CSV, a
  // checkpoint journal and a trace on a full disk.
#ifdef ANONPATH_BENCH_PERF_BINARY
  EXPECT_NE(shell_status("'" + std::string(ANONPATH_BENCH_PERF_BINARY) +
                         "' --json=/no/such/dir/bench.json "
                         "--benchmark_filter=BM_EventQueueScheduleRun "
                         "--benchmark_min_time=0.01 >/dev/null 2>&1"),
            0)
      << "expected benchmark JSON write failure";
#endif
  if (std::system("sh -c 'echo x > /dev/full' 2>/dev/null") == 0)
    GTEST_SKIP() << "/dev/full does not reject writes here";
  const std::string cli = "'" + cli_binary() + "' ";
  const std::string small = "--n 16 --c 1 --dist F:3 --messages 50";
  EXPECT_NE(shell_status(cli + "campaign " + small +
                         " --replicas 1 > /dev/full 2>/dev/null"),
            0)
      << "expected stdout write failure";
  EXPECT_NE(shell_status(cli + "campaign " + small +
                         " --replicas 1 --checkpoint /dev/full > /dev/null "
                         "2>/dev/null"),
            0)
      << "expected checkpoint write failure";
  EXPECT_NE(shell_status(cli + "capture " + small +
                         " --out /dev/full > /dev/null 2>/dev/null"),
            0)
      << "expected trace write failure";
}

TEST_F(CliParse, AdversaryAxisIsTraceInvariantAndCaptureReplays) {
  // The adversary axis sweeps (one row per model) identically inline and
  // through the trace pipeline, and capture -> replay reproduces an inline
  // simulate exactly.
  const std::string sweep =
      "campaign --n 30 --c 2 --dist F:3 --adversary full,partial:0.2,timing "
      "--messages 150 --replicas 4 --seed 7 --threads 8";
  int rc_inline = -1, rc_trace = -1;
  const std::string inline_csv = cli_stdout(sweep, &rc_inline);
  const std::string trace_csv = cli_stdout(sweep + " --via-trace", &rc_trace);
  ASSERT_EQ(rc_inline, 0);
  ASSERT_EQ(rc_trace, 0);
  EXPECT_EQ(std::count(inline_csv.begin(), inline_csv.end(), '\n'), 4);
  EXPECT_EQ(inline_csv, trace_csv);

  const std::string run = "--n 40 --c 3 --dist U:1,6 --messages 300 --seed 9";
  const std::string trace_path = ::testing::TempDir() + "anonpath_adv." +
                                 std::to_string(::getpid()) + ".trace";
  int rc_sim = -1, rc_capture = -1, rc_replay = -1;
  const std::string simulated = cli_stdout("simulate " + run, &rc_sim);
  (void)cli_stdout("capture " + run + " --out '" + trace_path + "'",
                   &rc_capture);
  const std::string replayed =
      cli_stdout("replay --in '" + trace_path + "'", &rc_replay);
  std::remove(trace_path.c_str());
  ASSERT_EQ(rc_sim, 0);
  ASSERT_EQ(rc_capture, 0);
  ASSERT_EQ(rc_replay, 0);
  EXPECT_FALSE(simulated.empty());
  EXPECT_EQ(simulated, replayed);
}

/// `text` without its "throughput" lines, the only wall-clock output of
/// the estimate command.
std::string without_throughput(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);)
    if (line.find("throughput") == std::string::npos) out += line + "\n";
  return out;
}

TEST_F(CliParse, CliAndMonteCarloAreThreadInvariant) {
  // The closed form runs, and the Monte-Carlo estimate is identical at 1
  // and 8 threads apart from its timing line.
  int rc = -1;
  EXPECT_FALSE(cli_stdout("degree --n 100 --dist F:5", &rc).empty());
  EXPECT_EQ(rc, 0);
  const std::string estimate =
      "estimate --n 60 --c 4 --dist U:1,10 --samples 20000 --threads ";
  int rc_one = -1, rc_eight = -1;
  const std::string one = cli_stdout(estimate + "1", &rc_one);
  const std::string eight = cli_stdout(estimate + "8", &rc_eight);
  ASSERT_EQ(rc_one, 0);
  ASSERT_EQ(rc_eight, 0);
  EXPECT_NE(one.find("H* = "), std::string::npos) << one;
  EXPECT_EQ(without_throughput(one), without_throughput(eight));
}

TEST_F(CliParse, TopologyAndChurnAxesAreThreadAndTraceInvariant) {
  // Topology x churn campaign sweeps, thread- and trace-invariant.
  const std::string sweep =
      "campaign --n 24 --c 2 --dist F:3 --topology complete,ring:2,tiered:3 "
      "--churn 0,0.5:0.5 --messages 150 --replicas 4 --seed 7";
  int rc_inline = -1, rc_trace = -1;
  const std::string inline_csv = cli_stdout(sweep + " --threads 8",
                                            &rc_inline);
  const std::string trace_csv =
      cli_stdout(sweep + " --threads 1 --via-trace", &rc_trace);
  ASSERT_EQ(rc_inline, 0);
  ASSERT_EQ(rc_trace, 0);
  EXPECT_EQ(std::count(inline_csv.begin(), inline_csv.end(), '\n'), 7);
  EXPECT_EQ(inline_csv, trace_csv);

  // Restricted-graph capture -> replay reproduces inline simulate.
  const std::string run =
      "--n 24 --c 2 --dist U:1,5 --topology tiered:3 --churn 0.3:0.5 "
      "--messages 200 --seed 9";
  const std::string trace_path = ::testing::TempDir() + "anonpath_topo." +
                                 std::to_string(::getpid()) + ".trace";
  int rc_sim = -1, rc_capture = -1, rc_replay = -1;
  const std::string simulated = cli_stdout("simulate " + run, &rc_sim);
  (void)cli_stdout("capture " + run + " --out '" + trace_path + "'",
                   &rc_capture);
  const std::string replayed =
      cli_stdout("replay --in '" + trace_path + "'", &rc_replay);
  std::remove(trace_path.c_str());
  ASSERT_EQ(rc_sim, 0);
  ASSERT_EQ(rc_capture, 0);
  ASSERT_EQ(rc_replay, 0);
  EXPECT_FALSE(simulated.empty());
  EXPECT_EQ(simulated, replayed);

  // Walk-model MC estimate on a restricted graph runs and is thread-count
  // invariant.
  const std::string estimate =
      "estimate --n 40 --c 3 --dist U:1,6 --topology ring:4 --samples 20000 "
      "--threads ";
  int rc_one = -1, rc_eight = -1;
  const std::string one = cli_stdout(estimate + "1", &rc_one);
  const std::string eight = cli_stdout(estimate + "8", &rc_eight);
  ASSERT_EQ(rc_one, 0);
  ASSERT_EQ(rc_eight, 0);
  EXPECT_NE(one.find("walk-model"), std::string::npos) << one;
  EXPECT_EQ(without_throughput(one), without_throughput(eight));

  // Out-of-range topology parameters fail loudly (nonzero exit).
  EXPECT_NE(run_cli("simulate --n 10 --topology ring:20 --messages 50")
                .exit_code,
            0);
  // So does a trust decay whose farthest weight underflows to 0 at this N
  // (decay 0.5 stops at N = 2151), on every command that builds the graph.
  expect_usage_errors({
      "simulate --n 3000 --topology trust:0.5",
      "simulate --n 2152 --topology trust:0.5 --messages 10",
      "capture --n 3000 --topology trust:0.5 --out /dev/null",
      "campaign --n 3000 --topology trust:0.5 --messages 10 --replicas 1",
      "plan --n 4473 --topology trust:0.5",
      "estimate --n 3000 --topology trust:0.5 --samples 10",
  });
}

TEST_F(CliParse, PositiveControls) {
  // The matrix proves rejection; these prove the runner and the happy path
  // still work, so a binary that exits nonzero on everything cannot pass.
  EXPECT_EQ(run_cli("estimate --n 50 --c 2 --samples 20000").exit_code, 0);
  EXPECT_EQ(
      run_cli("simulate --n 12 --c 2 --messages 20 --seed 3").exit_code, 0);
  EXPECT_EQ(run_cli("plan --n 200 --topology regular:4 --routes 10 "
                    "--routing kpaths:2")
                .exit_code,
            0);
}

/// The first line of `text` (the CLI's "error: ..." line).
std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

TEST_F(CliParse, EveryFlagIsRefusedOutsideTheCommandsThatReadIt) {
  // This test's own copy of the command x flag matrix (README "CLI"), kept
  // apart from the CLI's flag table so the two check each other. A flag
  // outside its command's row exits 2 before its value is parsed, with an
  // error line naming the flag, the command and exactly the commands that
  // do read it; inside the row it is never refused as inapplicable.
  const std::vector<std::string> axes = {
      "--n",       "--c",          "--dist",  "--mode",       "--drop",
      "--rate",    "--adversary",  "--topology", "--routing", "--churn",
      "--mix-failures", "--retry", "--population", "--rounds", "--attack",
      "--stream"};
  const auto with = [](std::vector<std::string> row,
                       const std::vector<std::string>& more) {
    row.insert(row.end(), more.begin(), more.end());
    return row;
  };
  const std::vector<std::string> simulator = with(
      axes, {"--messages", "--seed", "--threshold", "--receiver-law",
             "--crash"});
  const std::vector<std::string> sweep =
      with(simulator, {"--replicas", "--threads", "--via-trace",
                       "--checkpoint", "--metrics", "--progress"});
  const std::map<std::string, std::vector<std::string>> reads = {
      {"degree", {"--n", "--dist", "--breakdown"}},
      {"estimate",
       {"--n", "--c", "--dist", "--topology", "--samples", "--seed",
        "--threads", "--shards"}},
      {"optimize", {"--n", "--mean"}},
      {"figures", {"--n"}},
      {"replay", {"--in"}},
      {"simulate", with(simulator, {"--metrics", "--progress"})},
      {"capture", with(simulator, {"--out"})},
      {"campaign", with(sweep, {"--resume", "--shard"})},
      {"merge", with(sweep, {"--input"})},
      {"attack",
       {"--attack", "--population", "--rounds", "--stream", "--seed",
        "--threads", "--threshold", "--every", "--users", "--pairs",
        "--round-size", "--send-rate", "--sender-law", "--receiver-law",
        "--metrics", "--progress"}},
      {"plan",
       {"--n", "--topology", "--routing", "--seed", "--components",
        "--source", "--routes", "--metrics", "--progress"}},
  };
  const std::string tmp = ::testing::TempDir() + "anonpath_matrix." +
                          std::to_string(::getpid()) + ".";
  // A valid value for every flag; switches take none.
  const std::map<std::string, std::string> value = {
      {"--n", "12"}, {"--c", "2"}, {"--dist", "F:3"}, {"--mode", "onion"},
      {"--drop", "0"}, {"--rate", "50"}, {"--adversary", "full"},
      {"--topology", "complete"}, {"--routing", "walk"}, {"--churn", "0"},
      {"--mix-failures", "0"}, {"--retry", "0"}, {"--population", "0"},
      {"--rounds", "0"}, {"--attack", "none"}, {"--stream", "exact"},
      {"--messages", "20"}, {"--seed", "5"}, {"--threshold", "0.5"},
      {"--receiver-law", "uniform"}, {"--crash", "0:1:1"},
      {"--replicas", "1"}, {"--threads", "1"}, {"--via-trace", ""},
      {"--checkpoint", "'" + tmp + "ckpt'"}, {"--resume", ""},
      {"--shard", "0/1"}, {"--input", "'" + tmp + "in.ckpt'"},
      {"--metrics", "'" + tmp + "metrics.jsonl'"}, {"--progress", ""},
      {"--out", "/dev/null"}, {"--in", "'" + tmp + "in.trace'"},
      {"--breakdown", ""}, {"--samples", "100"}, {"--shards", "2"},
      {"--mean", "3"}, {"--every", "5"},
      {"--users", "200"}, {"--pairs", "1"}, {"--round-size", "8"},
      {"--send-rate", "0.5"}, {"--sender-law", "uniform"},
      {"--components", ""}, {"--source", "0"}, {"--routes", "5"},
  };
  // Keeps the in-row runs small.
  const std::map<std::string, std::string> base = {
      {"estimate", " --samples 100"},
      {"simulate", " --messages 20"},
      {"capture", " --messages 20"},
      {"campaign", " --messages 20 --replicas 1"},
  };

  // Every flag the help text names is in the matrix, and vice versa, so a
  // new flag cannot skip this check.
  const std::string help = run_cli("--help").stderr_text;
  std::set<std::string> help_flags;
  for (std::size_t at = help.find("--"); at != std::string::npos;
       at = help.find("--", at + 2)) {
    std::size_t end = at + 2;
    while (end < help.size() &&
           (std::islower(static_cast<unsigned char>(help[end])) ||
            help[end] == '-'))
      ++end;
    if (end > at + 2) help_flags.insert(help.substr(at, end - at));
  }
  std::set<std::string> all_flags;
  for (const auto& [flag, v] : value) all_flags.insert(flag);
  EXPECT_EQ(help_flags, all_flags);

  for (const auto& [command, row] : reads) {
    for (const std::string& flag : row)
      ASSERT_TRUE(value.count(flag)) << flag;
    for (const std::string& flag : all_flags) {
      const std::string& v = value.at(flag);
      const bool in_row = std::find(row.begin(), row.end(), flag) != row.end();
      const std::string refusal =
          flag + " does not apply to '" + command + "'";
      if (in_row) {
        const std::string args = command +
                                 (base.count(command) ? base.at(command) : "") +
                                 " " + flag + (v.empty() ? "" : " " + v);
        EXPECT_EQ(run_cli(args).stderr_text.find(refusal), std::string::npos)
            << "anonpath " << args;
        continue;
      }
      // The value, valid or not, is never parsed.
      for (const std::string& arg : {v, std::string(v.empty() ? "" : "junk")}) {
        const std::string args = command + " " + flag + " " + arg;
        const run_result r = run_cli(args);
        const std::string line = first_line(r.stderr_text);
        EXPECT_EQ(r.exit_code, 2) << "anonpath " << args << "\n" << line;
        EXPECT_NE(line.find(refusal), std::string::npos)
            << "anonpath " << args << "\n" << line;
        EXPECT_EQ(r.stderr_text.find("precondition failed"),
                  std::string::npos)
            << "anonpath " << args;
        std::set<std::string> named, readers;
        const std::string by = "it is read by ";
        if (line.find(by) != std::string::npos) {
          std::istringstream list(line.substr(line.find(by) + by.size()));
          for (std::string name; std::getline(list >> std::ws, name, ',');)
            named.insert(name);
        }
        for (const auto& [other, other_row] : reads)
          if (std::find(other_row.begin(), other_row.end(), flag) !=
              other_row.end())
            readers.insert(other);
        EXPECT_EQ(named, readers) << line;
      }
    }
  }
  for (const char* file : {"ckpt", "metrics.jsonl"})
    std::remove((tmp + file).c_str());

  // The storage-layout and scoring-path switches are gone: one graph
  // storage, one Monte-Carlo scorer.
  for (const char* args : {"plan --n 200 --csr", "estimate --no-dedup"}) {
    const run_result r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
    EXPECT_NE(r.stderr_text.find("unknown flag"), std::string::npos)
        << "anonpath " << args << "\n" << r.stderr_text;
  }
}

TEST_F(CliParse, PlanMetricsWriteThePhaseSpans) {
  // plan times its phases with obs spans: --metrics writes them, and
  // stdout is the same with or without --metrics up to the timing values.
  const std::string args =
      "plan --n 3000 --topology regular:4 --components --routes 20 "
      "--routing kpaths:2 --seed 5";
  const std::string metrics = ::testing::TempDir() + "anonpath_plan." +
                              std::to_string(::getpid()) + ".jsonl";
  int rc_plain = -1, rc_metrics = -1;
  const std::string plain = cli_stdout(args, &rc_plain);
  const std::string traced =
      cli_stdout(args + " --metrics '" + metrics + "'", &rc_metrics);
  ASSERT_EQ(rc_plain, 0);
  ASSERT_EQ(rc_metrics, 0);
  // Every stdout line ends in its phase's duration, ", <seconds> s".
  const auto without_timing = [](const std::string& text) {
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
      const std::size_t comma = line.rfind(", ");
      EXPECT_TRUE(comma != std::string::npos && line.back() == 's') << line;
      out += line.substr(0, comma) + "\n";
    }
    return out;
  };
  EXPECT_EQ(without_timing(plain), without_timing(traced));
  EXPECT_NE(plain.find("components: 1"), std::string::npos) << plain;

  const obs::metrics_document doc = obs::read_metrics_file(metrics);
  std::remove(metrics.c_str());
  std::vector<std::string> names;
  for (const obs::span_record& span : doc.spans) {
    EXPECT_EQ(span.parent, 0u) << span.name;
    names.push_back(span.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"net.build", "net.components",
                                             "net.dijkstra", "net.routes",
                                             "net.yen"}));
}

TEST_F(CliParse, MillionNodePlanBuildsAndRoutes) {
  // The scale target: build a 1e6-node graph, prove it one component, run
  // a full Dijkstra tree and extract 100 routes.
  int rc = -1;
  const std::string scale = cli_stdout(
      "plan --n 1000000 --topology regular:2 --components --routes 100", &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_NE(scale.find("N=1000000, 1000000 edges, csr storage"),
            std::string::npos)
      << scale;
  EXPECT_NE(scale.find("components: 1,"), std::string::npos) << scale;
  EXPECT_NE(scale.find("dijkstra from 0: 1000000 reachable"),
            std::string::npos)
      << scale;
  // kpaths planning at 1e5 nodes, degree 4 (Yen pays ~40 masked Dijkstras
  // per route here, so the route count stays low).
  const std::string kpaths = cli_stdout(
      "plan --n 100000 --topology regular:4 --routes 20 --routing kpaths:4",
      &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_NE(kpaths.find("kpaths(4) routes"), std::string::npos) << kpaths;
}

TEST_F(CliParse, ViaTraceShardsMergeToTheUnshardedCsv) {
  // --via-trace is part of the campaign's scope fingerprint, so merge reads
  // it: shards run with it merge to the unsharded --via-trace CSV byte for
  // byte, and the same merge without it is refused as a scope mismatch.
  const std::string dir = ::testing::TempDir() + "anonpath_via_trace." +
                          std::to_string(::getpid()) + ".";
  const std::string grid =
      "--n 16,24 --c 1,2 --messages 40 --replicas 1 --seed 11";
  int rc = -1;
  const std::string clean = cli_stdout("campaign " + grid + " --via-trace",
                                       &rc);
  ASSERT_EQ(rc, 0);
  ASSERT_EQ(std::count(clean.begin(), clean.end(), '\n'), 5);
  std::string inputs;
  for (int i = 0; i < 2; ++i) {
    const std::string ckpt = dir + "shard" + std::to_string(i) + ".ckpt";
    inputs += " --input '" + ckpt + "'";
    EXPECT_EQ(run_cli("campaign " + grid + " --via-trace --shard " +
                      std::to_string(i) + "/2 --checkpoint '" + ckpt + "'")
                  .exit_code,
              0);
  }
  EXPECT_EQ(cli_stdout("merge " + grid + " --via-trace" + inputs, &rc), clean);
  EXPECT_EQ(rc, 0);
  const run_result inline_merge = run_cli("merge " + grid + inputs);
  EXPECT_NE(inline_merge.exit_code, 0);
  EXPECT_NE(inline_merge.stderr_text.find("scope mismatch"), std::string::npos)
      << inline_merge.stderr_text;
  for (int i = 0; i < 2; ++i)
    std::remove((dir + "shard" + std::to_string(i) + ".ckpt").c_str());
}

TEST_F(CliParse, CampaignIsThreadInvariantAndTelemetryIsAWriteOnlyTap) {
  // The 48-cell grid x 8 replicas: its CSV is byte-identical at 1 and 8
  // threads, and again with --metrics and --progress on, while the
  // heartbeats land on stderr and the snapshot carries the versioned
  // header and the campaign catalogue keys.
  const std::string dir = ::testing::TempDir() + "anonpath_obs_tap." +
                          std::to_string(::getpid()) + ".";
  const std::string grid =
      "campaign --n 30,60 --c 1,4,8 --dist F:3 --dist U:1,8 "
      "--mode onion,crowds --drop 0,0.05 --messages 200 --replicas 8 "
      "--seed 7";
  int rc_one = -1, rc_eight = -1;
  const std::string one = cli_stdout(grid + " --threads 1", &rc_one);
  const std::string eight = cli_stdout(grid + " --threads 8", &rc_eight);
  ASSERT_EQ(rc_one, 0);
  ASSERT_EQ(rc_eight, 0);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 49);
  EXPECT_EQ(one, eight);

  const std::string cli = "'" + cli_binary() + "' ";
  const std::string metrics = dir + "campaign-metrics.jsonl";
  ASSERT_EQ(shell_status(cli + grid + " --threads 8 --metrics '" + metrics +
                         "' --progress > '" + dir + "obs.csv' 2> '" + dir +
                         "obs.log'"),
            0);
  EXPECT_EQ(slurp(dir + "obs.csv"), one);
  EXPECT_NE(slurp(dir + "obs.log")
                .find("# progress: campaign cells 48/48 (100.0%)"),
            std::string::npos);
  const std::string snapshot = slurp(metrics);
  EXPECT_NE(first_line(snapshot).find(
                "\"format\":\"anonpath-metrics\",\"version\":1"),
            std::string::npos)
      << first_line(snapshot);
  for (const char* key :
       {"\"name\":\"campaign.cells_completed\",\"value\":48",
        "\"name\":\"campaign.runs_completed\",\"value\":384",
        "\"name\":\"sim.events_executed\"",
        "\"name\":\"campaign.run_us\",\"total\":384"})
    EXPECT_NE(snapshot.find(key), std::string::npos) << key;
  // run_campaign is one root span of the snapshot.
  EXPECT_NE(snapshot.find("\"kind\":\"span\",\"id\":1,\"parent\":0,"
                          "\"name\":\"sim.campaign\""),
            std::string::npos)
      << snapshot;

  // simulate roots a deterministic span tree under the same header.
  const std::string sim_metrics = dir + "sim-metrics.jsonl";
  ASSERT_EQ(run_cli("simulate --n 20 --c 2 --dist F:3 --messages 100 "
                    "--seed 3 --metrics '" + sim_metrics + "'")
                .exit_code,
            0);
  const std::string spans = slurp(sim_metrics);
  EXPECT_NE(spans.find("\"kind\":\"span\",\"id\":1,\"parent\":0,"
                       "\"name\":\"sim.run\""),
            std::string::npos)
      << spans;
  EXPECT_NE(spans.find("\"kind\":\"span\",\"id\":2,\"parent\":1,"
                       "\"name\":\"sim.run_core\""),
            std::string::npos)
      << spans;

  // A snapshot that cannot land fails the run; a command that is not
  // instrumented refuses the flags loudly.
  if (std::system("sh -c 'echo x > /dev/full' 2>/dev/null") != 0)
    EXPECT_NE(run_cli("simulate --n 16 --c 1 --dist F:3 --messages 30 "
                      "--metrics /dev/full")
                  .exit_code,
              0)
        << "expected metrics write failure";
  EXPECT_NE(run_cli("degree --n 100 --dist F:5 --progress").exit_code, 0)
      << "expected obs-flag rejection";
  for (const char* file :
       {"campaign-metrics.jsonl", "obs.csv", "obs.log", "sim-metrics.jsonl"})
    std::remove((dir + file).c_str());
}

TEST_F(CliParse, DisclosureAttacksScaleAndIdentify) {
  // Population scale: 1e5 users x 1e4 rounds stream through the sharded
  // accumulator, whose cross-check asserts bit-identity with the streaming
  // counts, and sda identifies the partner.
  const run_result scale =
      run_cli("attack --users 100000 --rounds 10000 --round-size 12 "
              "--attack sda --seed 42 --threads 8 --threshold 0.15 "
              "--every 1000");
  ASSERT_EQ(scale.exit_code, 0) << scale.stderr_text;
  EXPECT_NE(scale.stderr_text.find("accumulator cross-check (8 threads over "
                                   "10000 rounds): identical"),
            std::string::npos)
      << scale.stderr_text;
  const std::size_t identified = scale.stderr_text.find("identified at round ");
  ASSERT_NE(identified, std::string::npos) << scale.stderr_text;
  EXPECT_NE(first_line(scale.stderr_text.substr(identified)).find("correct"),
            std::string::npos)
      << scale.stderr_text;

  // Small population at a fixed seed: sequential Bayes pins the partner
  // within 40 rounds.
  const run_result bayes =
      run_cli("attack --users 2000 --population 500 --rounds 200 "
              "--round-size 16 --attack bayes --seed 11 --every 1");
  ASSERT_EQ(bayes.exit_code, 0) << bayes.stderr_text;
  const unsigned long long round =
      number_after(bayes.stderr_text, "# identified at round ");
  EXPECT_GE(round, 1u) << bayes.stderr_text;
  EXPECT_LE(round, 40u) << bayes.stderr_text;
  EXPECT_NE(bayes.stderr_text.find("correct"), std::string::npos)
      << bayes.stderr_text;

  // Session axes sweep thread- and trace-pipeline invariantly: 4 coherent
  // cells (session off, and 15 x 25 under each attack).
  const std::string sessions =
      "campaign --n 20 --c 2 --dist U:1,4 --population 0,15 --rounds 0,25 "
      "--attack none,sda,bayes --messages 300 --replicas 2 --seed 7";
  int rc_eight = -1, rc_trace = -1;
  const std::string eight = cli_stdout(sessions + " --threads 8", &rc_eight);
  const std::string traced =
      cli_stdout(sessions + " --threads 1 --via-trace", &rc_trace);
  ASSERT_EQ(rc_eight, 0);
  ASSERT_EQ(rc_trace, 0);
  EXPECT_EQ(std::count(eight.begin(), eight.end(), '\n'), 5);
  EXPECT_EQ(eight, traced);

  // Unknown attack kinds and incoherent session axes fail loudly.
  EXPECT_NE(run_cli("attack --users 100 --attack frequency").exit_code, 0);
  EXPECT_NE(run_cli("simulate --n 20 --population 5 --messages 100")
                .exit_code,
            0);
}

TEST_F(CliParse, AttackMetricsSpanTheCrossChecks) {
  // The sharded accumulations and the verification behind attack's
  // conformance report are root spans of its snapshot, and --metrics
  // leaves stdout byte-identical.
  const std::string metrics = ::testing::TempDir() + "anonpath_attack." +
                              std::to_string(::getpid()) + ".jsonl";
  const std::string run =
      "attack --users 100000 --rounds 1000 --attack sda --seed 3 "
      "--threads 4 --stream sketch --every 100";
  int rc_plain = -1, rc_metrics = -1;
  const std::string plain = cli_stdout(run, &rc_plain);
  const std::string traced =
      cli_stdout(run + " --metrics '" + metrics + "'", &rc_metrics);
  ASSERT_EQ(rc_plain, 0);
  ASSERT_EQ(rc_metrics, 0);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, traced);
  const std::string snapshot = slurp(metrics);
  std::remove(metrics.c_str());
  for (const char* name : {"attack.run", "workload.accumulate_exact",
                           "workload.accumulate_sketch", "attack.verify",
                           "attack.ingest"})
    EXPECT_NE(snapshot.find("\"parent\":0,\"name\":\"" + std::string(name) +
                            "\""),
              std::string::npos)
        << name << " is not a root span in\n" << snapshot;
}

TEST_F(CliParse, FaultAxesSweepAndKilledCampaignResumes) {
  // The retry axis sweeps thread-count invariantly (its timers and drops
  // run on the event core), and a campaign killed mid-grid with SIGKILL —
  // no flush, no cleanup — resumes from its journal to the clean run's
  // bytes. If the run finishes before the kill lands, resuming a complete
  // journal still reproduces the bytes doing zero work.
  const std::string dir = ::testing::TempDir() + "anonpath_fault_axes." +
                          std::to_string(::getpid()) + ".";
  const std::string retry =
      "campaign --n 24 --c 2 --dist U:1,5 --drop 0.2 --retry 0,2:0.3,4:0.3 "
      "--messages 200 --replicas 4 --seed 7";
  int rc_eight = -1, rc_one = -1;
  const std::string eight = cli_stdout(retry + " --threads 8", &rc_eight);
  const std::string one = cli_stdout(retry + " --threads 1", &rc_one);
  ASSERT_EQ(rc_eight, 0);
  ASSERT_EQ(rc_one, 0);
  EXPECT_EQ(std::count(eight.begin(), eight.end(), '\n'), 4);
  EXPECT_EQ(eight, one);

  const std::string grid =
      "campaign --n 30,60 --c 2,4 --dist U:1,6 --drop 0.15 --retry 0,3:0.3 "
      "--messages 400 --replicas 6 --seed 7 --threads 2";
  int rc_clean = -1;
  const std::string clean =
      cli_stdout(grid + " --checkpoint '" + dir + "clean.ckpt'", &rc_clean);
  ASSERT_EQ(rc_clean, 0);

  const std::string kill_ckpt = dir + "kill.ckpt";
  const std::string killed = "exec '" + cli_binary() + "' " + grid +
                             " --checkpoint '" + kill_ckpt + "' > '" + dir +
                             "killed.csv' 2>/dev/null";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", killed.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  for (int i = 0; i < 200; ++i) {
    const std::string journal = slurp(kill_ckpt);
    if (std::count(journal.begin(), journal.end(), '\n') >= 5) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  int rc_resumed = -1;
  const std::string resumed = cli_stdout(
      grid + " --checkpoint '" + kill_ckpt + "' --resume", &rc_resumed);
  ASSERT_EQ(rc_resumed, 0);
  EXPECT_EQ(resumed, clean);

  // A foreign journal is refused loudly, not silently recomputed.
  EXPECT_NE(run_cli(grid + " --replicas 3 --checkpoint '" + kill_ckpt +
                    "' --resume")
                .exit_code,
            0)
      << "expected scope-mismatch failure";
  // Out-of-range fault parameters fail loudly at config time.
  for (const char* bad : {"simulate --n 20 --drop 1.5 --messages 50",
                          "simulate --n 20 --retry 2:0 --messages 50",
                          "simulate --n 20 --crash 50:0:1 --messages 50"})
    EXPECT_NE(run_cli(bad).exit_code, 0) << bad;
  for (const char* file : {"clean.ckpt", "kill.ckpt", "killed.csv"})
    std::remove((dir + file).c_str());
}

}  // namespace
