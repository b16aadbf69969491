// anonpath — command-line front end to the library.
//
//   anonpath degree   --n 100 --dist F:5            score a strategy
//   anonpath degree   --n 100 --dist U:2,14 --breakdown
//   anonpath estimate --n 100 --c 8 --dist U:1,10 --samples 100000 --threads 0
//   anonpath optimize --n 100 --mean 5              optimal distribution
//   anonpath simulate --n 60 --c 2 --dist U:2,14 --messages 2000
//   anonpath simulate --n 60 --c 2 --adversary partial:0.3:honest
//   anonpath simulate --n 60 --c 2 --topology tiered:3 --churn 0.5:0.5
//   anonpath estimate --n 40 --c 3 --topology ring:4 --samples 50000
//   anonpath campaign --n 30,60 --c 1,4 --dist F:3 --dist U:1,8 \
//                     --drop 0,0.05 --replicas 8 --threads 0   scenario sweep
//   anonpath campaign --n 24 --c 2 --topology complete,ring:2,tiered:3 \
//                     --churn 0,0.5:0.5                 topology/churn axes
//   anonpath simulate --n 60 --c 2 --topology regular:4 --routing kpaths:4
//   anonpath plan     --n 1000000 --topology regular:2 --routes 100
//   anonpath capture  --n 60 --c 2 --dist U:2,14 --out run.trace
//   anonpath replay   --in run.trace                re-score a captured run
//   anonpath attack   --users 100000 --rounds 10000 --round-size 12 \
//                     --attack sda --threads 8      longitudinal disclosure
//   anonpath simulate --n 60 --c 2 --population 20 --rounds 50 --attack bayes
//   anonpath campaign --n 30 --c 2 --population 0,20 --rounds 0,50 \
//                     --attack none,sda             session axes
//   anonpath figures  --n 100                       dump all paper figures
//
// Distribution syntax: F:l | U:a,b | G:pf,min,max (geometric) | P:lambda,max.
// Adversary syntax: full | partial:<f>[:honest] | timing (the coverage
// fraction f in [0,1] is required; ":honest" leaves the receiver
// uncompromised).
// Topology syntax: complete | ring:<k> | regular:<d>[:<seed>] | tiered:<t>
// | trust:<decay>; out-of-range parameters (for the given --n) are a hard
// error, never a silent fallback to the clique.
// Routing syntax: walk (default) | kpaths[:<k>] — planned k-shortest-path
// routing (Dijkstra/Yen); requires onion mode and a non-timing adversary.
// Churn syntax: 0 (static) | <down_rate>[:<mean_downtime>] (seconds).
// Retry syntax: <max>[:<timeout>[:<backoff>[:<max_timeout>]]] (0 = off).
// Mix-failure syntax: <count>[:<horizon>[:<mean_duration>]] (0 = off).
// Crash syntax: <node>:<start>:<duration> (repeatable; applies to every
// cell of a campaign, so a node outside some cell's N fails that cell
// into its error column instead of killing the sweep).
// Popularity-law syntax: uniform | zipf:<s> (s > 0).
// Attack syntax: none | intersection | sda | bayes (sequential_bayes).
// Stream-backend syntax: exact | sketch (sketched sda accumulator state:
// count-min counts plus a bottom-k candidate reservoir; sda cells only).
// Campaign axes (the table in src/sim/campaign_axes.cpp: --n, --c, --dist,
// --mode, --drop, --rate, --adversary, --topology, --routing, --churn,
// --mix-failures, --retry, --population, --rounds, --attack, --stream)
// take comma-separated lists and --dist may repeat; the campaign runs their
// cartesian product, and every other command takes one value per axis.
// Out-of-range or unknown values exit loudly (status 2), never silently
// fall back, and so does a flag the command does not read (flag_table).

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <chrono>
#include <thread>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/monte_carlo.hpp"
#include "src/anonymity/optimizer.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/attack/disclosure.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/net/churn.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/net/topology_mc.hpp"
#include "src/obs/jsonl.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/progress.hpp"
#include "src/obs/span.hpp"
#include "src/repro/figures.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/campaign_axes.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/error.hpp"
#include "src/workload/cooccurrence.hpp"
#include "src/workload/population.hpp"
#include "src/workload/streaming.hpp"

namespace {

using namespace anonpath;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(
      stderr,
      "usage: anonpath "
      "<degree|estimate|optimize|simulate|campaign|merge|capture|replay"
      "|attack|plan|figures> [options]\n"
      "  A flag a command does not read is refused (status 2), never\n"
      "  ignored; the error names the commands that read it.\n"
      "  common:   --n <nodes>      (default 100; at most 1000000 for\n"
      "                      estimate and the simulator commands, 10000000\n"
      "                      for plan: larger runs cannot fit in 4 GB;\n"
      "                      10000 for figures); a built graph (plan,\n"
      "                      --topology, kpaths) at most 40000000 edges\n"
      "            integers are decimal digits only (no sign, no spaces)\n"
      "            --c <compromised> (default 1)\n"
      "            --dist F:l | U:a,b | G:pf,min,max | P:lambda,max\n"
      "            --adversary full | partial:<f>[:honest] | timing\n"
      "                      (the coverage fraction f in [0, 1] is required)\n"
      "            --topology complete | ring:<k> | regular:<d>[:<seed>]\n"
      "                       | tiered:<t> | trust:<decay>\n"
      "            --routing walk | kpaths[:<k>]  planned k-shortest-path\n"
      "                      routing (simulate/capture/campaign/plan)\n"
      "            --churn 0 | <down_rate>[:<mean_downtime>]\n"
      "            --retry <max>[:<timeout>[:<backoff>[:<max_timeout>]]]\n"
      "            --mix-failures <count>[:<horizon>[:<mean_duration>]]\n"
      "                      (count at most 1000000; at most 1e9 expected\n"
      "                      churn transitions, 2000000 attempts per run)\n"
      "            --crash <node>:<start>:<duration>  (repeatable)\n"
      "  degree:   [--breakdown]\n"
      "  estimate: [--samples k] [--seed s] [--threads t (0=all cores)]\n"
      "            [--shards k]   Monte-Carlo H* for any C\n"
      "            (a restricted --topology uses the walk-model engine)\n"
      "  optimize: --mean <target expected length>\n"
      "  simulate: a one-cell campaign: every campaign axis flag, one value\n"
      "            each, plus [--messages k (at most 1000000)] [--seed s]\n"
      "            [--threshold x in [0, 1]; (0, 1) with --attack]; session\n"
      "            mode: --population P (at most 10000000) --rounds R\n"
      "            [--attack a]\n"
      "            [--stream exact|sketch]  sda accumulator backend\n"
      "  campaign: scenario-grid sweep on the simulator; CSV to stdout.\n"
      "            axes (comma lists): --n --c --drop --rate --adversary\n"
      "            --topology --routing --churn --mix-failures --retry\n"
      "            --population --rounds --attack --stream; --mode\n"
      "            onion,crowds; --dist may repeat (one spec each)\n"
      "            [--replicas r (default 8)] [--messages k (default 500)]\n"
      "            [--seed s] [--threads t (0=all cores)]\n"
      "            [--receiver-law uniform|zipf:<s>]\n"
      "            [--checkpoint file [--resume]]  crash-resumable journal\n"
      "            [--shard i/n]  run only cells with index = i mod n\n"
      "            (requires --checkpoint; combine shards with 'merge')\n"
      "  merge:    combine completed shard journals into the unsharded\n"
      "            result: the campaign's grid/config flags (they\n"
      "            rebuild the scope fingerprint), plus\n"
      "            --input file (repeatable, one per shard)\n"
      "            [--checkpoint file  also write the merged\n"
      "            journal]; CSV to stdout, bit-identical to an unsharded\n"
      "            run\n"
      "  attack:   longitudinal disclosure on a population workload (no\n"
      "            rerouting sim): --attack intersection|sda|bayes plus\n"
      "            [--users U] [--population P (default U)] [--rounds R]\n"
      "            [--pairs M] [--round-size B] [--send-rate p]; U and P\n"
      "            at most 10000000, R x B at most 100000000\n"
      "            [--sender-law L] [--receiver-law L] [--threshold x]\n"
      "            [--seed s] [--every k] [--threads t (sda cross-check)]\n"
      "            [--stream exact|sketch  online conformance report]\n"
      "            trajectory CSV to stdout, summary to stderr\n"
      "  capture:  simulate flags + [--out file (default stdout)]; writes\n"
      "            the adversary's event trace instead of scoring it\n"
      "  replay:   --in file; re-scores a captured trace offline (same\n"
      "            output as simulate, no event-driven re-run)\n"
      "  plan:     graph construction & route-planning diagnostics at scale\n"
      "            (CSR storage, Dijkstra, Yen k-shortest paths):\n"
      "            [--components] [--source u] [--routes r (default 100)]\n"
      "            [--routing kpaths[:<k>]] [--seed s]\n"
      "  figures:  (dumps fig3a/3b/4/5/6 series as CSV)\n"
      "  obs:      --metrics <file> (or --metrics=<file>)  write a JSONL\n"
      "            metrics snapshot; --progress  '# progress:' heartbeat\n"
      "            with ETA on stderr. Both apply to simulate, campaign,\n"
      "            attack, plan and merge only; merge --metrics reads each\n"
      "            --input FILE's FILE.metrics sibling and writes their\n"
      "            merged snapshot\n");
  std::exit(2);
}

[[noreturn]] void usage(const std::string& msg) { usage(msg.c_str()); }

/// One bit per command: a flag's entry in `flag_table` names the commands
/// that read it.
namespace on {
constexpr unsigned degree = 1u << 0, estimate = 1u << 1, optimize = 1u << 2,
                   figures = 1u << 3, replay = 1u << 4, simulate = 1u << 5,
                   capture = 1u << 6, campaign = 1u << 7, merge = 1u << 8,
                   attack = 1u << 9, plan = 1u << 10;
/// The simulator commands read every axis flag and the run flags.
constexpr unsigned simulator = simulate | capture | campaign | merge;
/// merge rebuilds the campaign's scope fingerprint from the same flags.
constexpr unsigned sweep = campaign | merge;
/// The instrumented commands.
constexpr unsigned obs = simulate | campaign | merge | attack | plan;
}  // namespace on

struct options {
  std::string command;
  /// Every campaign axis flag parses into this grid through the axis table
  /// (src/sim/campaign_axes.hpp), and --crash into its fault_outages. A
  /// flag's first use replaces the axis default, later uses append. Scalar
  /// commands read the one value of each axis (require_one_value_per_axis).
  sim::campaign_grid grid;
  /// Every flag on the command line.
  std::set<std::string> flags_given;
  [[nodiscard]] bool given(const char* flag) const {
    return flags_given.count(flag) > 0;
  }
  double mean = 5.0;
  std::uint32_t messages = 2000;
  std::uint64_t seed = 1;
  bool breakdown = false;
  std::uint64_t samples = 100000;
  unsigned threads = 0;
  std::uint64_t shards = 0;
  std::string checkpoint_path;   ///< campaign: journal file ("" = off)
  bool resume = false;           ///< campaign: adopt the journal's prefix
  std::uint32_t shard_index = 0; ///< campaign: this process's shard
  std::uint32_t shard_count = 1; ///< campaign: total shards (--shard i/n)
  std::vector<std::string> input_paths;  ///< merge: shard journals
  std::uint32_t replicas = 8;
  double threshold = 0.99;
  std::string out_path;  ///< capture: trace destination ("" = stdout)
  std::string in_path;   ///< replay: trace source
  // Longitudinal-attack workload surface (the 'attack' command).
  std::uint32_t users = 1000;         ///< attack: sender population
  std::uint32_t pairs = 1;            ///< attack: persistent pairs
  std::uint32_t round_size = 32;      ///< attack: threshold batch size
  double send_rate = 1.0;             ///< attack: per-round pair send prob.
  workload::popularity_law sender_law{};
  workload::popularity_law receiver_law{};
  std::uint32_t every = 0;            ///< attack: trajectory stride (0=auto)
  // Route-planning diagnostics surface (the 'plan' command).
  bool plan_components = false;       ///< plan: run connected components
  std::uint32_t plan_source = 0;      ///< plan: Dijkstra source node
  std::uint32_t plan_routes = 100;    ///< plan: routes to extract/plan
  // Observability surface (src/obs). Off by default: no registry, no
  // tracer, no heartbeat — default runs stay byte-identical.
  std::string metrics_path;  ///< --metrics: JSONL snapshot file ("" = off)
  bool progress = false;     ///< --progress: stderr heartbeat with ETA
};

workload::popularity_law parse_law(const std::string& spec) {
  workload::popularity_law law;
  if (spec == "uniform") return law;
  if (spec.rfind("zipf:", 0) == 0) {
    law.kind = workload::popularity_kind::zipf;
    law.exponent = sim::parse_finite_token(spec.substr(5), "zipf exponent");
    if (!law.valid()) usage("bad popularity law (want zipf:<s> with s > 0)");
    return law;
  }
  usage("popularity-law values are uniform|zipf:<s>");
}

/// "--shard i/n": i in [0, n), n >= 1. Everything else exits loudly.
void parse_shard(const std::string& spec, options& opt) {
  const auto slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size())
    usage("bad --shard (want i/n, e.g. --shard 0/4)");
  opt.shard_index =
      sim::parse_u32_token(spec.substr(0, slash), "--shard index");
  opt.shard_count =
      sim::parse_u32_token(spec.substr(slash + 1), "--shard count");
  if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count)
    usage("--shard index must be in [0, count) with count >= 1");
}

net::outage parse_crash(const std::string& spec) {
  const auto args = sim::split_tokens(spec, ':', "--crash");
  if (args.size() != 3) usage("bad --crash (want <node>:<start>:<duration>)");
  net::outage o;
  o.node = sim::parse_u32_token(args[0], "--crash node");
  o.start = sim::parse_finite_token(args[1], "--crash start");
  o.duration = sim::parse_finite_token(args[2], "--crash duration");
  if (!o.valid())
    usage("--crash parameters out of range (start >= 0, duration > 0, "
          "both finite)");
  return o;
}

/// A u32 flag value of at least `min`.
std::uint32_t parse_u32_at_least(const std::string& tok, const char* what,
                                 std::uint32_t min) {
  const std::uint32_t v = sim::parse_u32_token(tok, what);
  if (v < min)
    usage(std::string(what) + " must be >= " + std::to_string(min));
  return v;
}

/// An axis flag's value, parsed by its entry in the axis table. Called
/// before parse() records the flag, so the first use clears the default.
void parse_axis(options& opt, const char* flag, const std::string& spec) {
  sim::for_each_axis([&](const auto& axis) {
    if (std::strcmp(flag, axis.flag) != 0) return;
    auto& values = opt.grid.*axis.values;
    if (!opt.given(flag)) values.clear();
    for (const std::string& tok :
         axis.comma_list ? sim::split_tokens(spec, ',', axis.flag)
                         : std::vector<std::string>{spec})
      values.push_back(axis.parse(tok, axis.flag));
  });
}

/// One command-line flag: its name, the commands that read it, and its
/// value parser (switches ignore the value). The parsers are generic
/// lambdas over (options&, flag, value). Every numeric token goes through
/// the checked sim::parse_*_token parsers, so "--messages foo", "--threads
/// 4x" or "--rate inf" exit loudly instead of becoming 0, 4 or an infinite
/// rate; their parse_error becomes a usage error in parse().
struct flag_spec {
  const char* name;
  unsigned readers;  ///< on:: bits of the commands that read the flag
  bool takes_value;
  void (*parse)(options& opt, const char* flag, const std::string& value);
};

/// The one place that decides which command reads which flag: parse()
/// refuses a flag on any other command, so no flag is silently ignored.
constexpr flag_spec flag_table[] = {
    {"--n",
     on::simulator | on::degree | on::estimate | on::optimize | on::figures |
         on::plan,
     true, parse_axis},
    {"--c", on::simulator | on::estimate, true, parse_axis},
    {"--dist", on::simulator | on::degree | on::estimate, true, parse_axis},
    {"--mode", on::simulator, true, parse_axis},
    {"--drop", on::simulator, true, parse_axis},
    {"--rate", on::simulator, true, parse_axis},
    {"--adversary", on::simulator, true, parse_axis},
    {"--topology", on::simulator | on::estimate | on::plan, true, parse_axis},
    {"--routing", on::simulator | on::plan, true, parse_axis},
    {"--churn", on::simulator, true, parse_axis},
    {"--mix-failures", on::simulator, true, parse_axis},
    {"--retry", on::simulator, true, parse_axis},
    {"--population", on::simulator | on::attack, true, parse_axis},
    {"--rounds", on::simulator | on::attack, true, parse_axis},
    {"--attack", on::simulator | on::attack, true, parse_axis},
    {"--stream", on::simulator | on::attack, true, parse_axis},
    {"--crash", on::simulator, true, [](auto& o, auto f, auto& v) {
       for (const std::string& tok : sim::split_tokens(v, ',', f))
         o.grid.fault_outages.push_back(parse_crash(tok));
     }},
    {"--messages", on::simulator, true, [](auto& o, auto f, auto& v) {
       o.messages = parse_u32_at_least(v, f, 1);
     }},
    {"--seed", on::simulator | on::estimate | on::attack | on::plan, true,
     [](auto& o, auto f, auto& v) { o.seed = sim::parse_u64_token(v, f); }},
    {"--threshold", on::simulator | on::attack, true,
     [](auto& o, auto f, auto& v) {
       o.threshold = sim::parse_finite_token(v, f);
     }},
    {"--receiver-law", on::simulator | on::attack, true,
     [](auto& o, auto, auto& v) { o.receiver_law = parse_law(v); }},
    {"--replicas", on::sweep, true, [](auto& o, auto f, auto& v) {
       o.replicas = parse_u32_at_least(v, f, 1);
     }},
    {"--threads", on::sweep | on::estimate | on::attack, true,
     [](auto& o, auto f, auto& v) { o.threads = sim::parse_u32_token(v, f); }},
    {"--checkpoint", on::sweep, true,
     [](auto& o, auto, auto& v) { o.checkpoint_path = v; }},
    {"--resume", on::campaign, false,
     [](auto& o, auto, auto&) { o.resume = true; }},
    {"--shard", on::campaign, true,
     [](auto& o, auto, auto& v) { parse_shard(v, o); }},
    {"--input", on::merge, true,
     [](auto& o, auto, auto& v) { o.input_paths.push_back(v); }},
    {"--out", on::capture, true,
     [](auto& o, auto, auto& v) { o.out_path = v; }},
    {"--in", on::replay, true, [](auto& o, auto, auto& v) { o.in_path = v; }},
    {"--breakdown", on::degree, false,
     [](auto& o, auto, auto&) { o.breakdown = true; }},
    {"--samples", on::estimate, true, [](auto& o, auto f, auto& v) {
       o.samples = sim::parse_u64_token(v, f);
       if (o.samples == 0) usage("--samples must be > 0");
     }},
    {"--shards", on::estimate, true,
     [](auto& o, auto f, auto& v) { o.shards = sim::parse_u64_token(v, f); }},
    {"--mean", on::optimize, true,
     [](auto& o, auto f, auto& v) { o.mean = sim::parse_finite_token(v, f); }},
    {"--users", on::attack, true, [](auto& o, auto f, auto& v) {
       o.users = parse_u32_at_least(v, f, 2);
     }},
    {"--pairs", on::attack, true, [](auto& o, auto f, auto& v) {
       o.pairs = parse_u32_at_least(v, f, 1);
     }},
    {"--round-size", on::attack, true, [](auto& o, auto f, auto& v) {
       o.round_size = parse_u32_at_least(v, f, 1);
     }},
    {"--send-rate", on::attack, true, [](auto& o, auto f, auto& v) {
       o.send_rate = sim::parse_finite_token(v, f);
       if (o.send_rate < 0.0 || o.send_rate > 1.0)
         usage("--send-rate must be in [0, 1]");
     }},
    {"--sender-law", on::attack, true,
     [](auto& o, auto, auto& v) { o.sender_law = parse_law(v); }},
    {"--every", on::attack, true, [](auto& o, auto f, auto& v) {
       o.every = parse_u32_at_least(v, f, 1);
     }},
    {"--components", on::plan, false,
     [](auto& o, auto, auto&) { o.plan_components = true; }},
    {"--source", on::plan, true, [](auto& o, auto f, auto& v) {
       o.plan_source = sim::parse_u32_token(v, f);
     }},
    {"--routes", on::plan, true, [](auto& o, auto f, auto& v) {
       o.plan_routes = parse_u32_at_least(v, f, 1);
     }},
    // Also spelled --metrics=FILE (parse()).
    {"--metrics", on::obs, true, [](auto& o, auto, auto& v) {
       if (v.empty()) usage("--metrics wants a file path");
       o.metrics_path = v;
     }},
    {"--progress", on::obs, false,
     [](auto& o, auto, auto&) { o.progress = true; }},
};

/// The one-scenario commands (all but campaign and merge, checked in
/// parse()) take one value per axis flag: a comma list would otherwise run
/// only its first value — a silent drop (the axes belong to 'campaign').
void require_one_value_per_axis(const options& opt) {
  sim::for_each_axis([&opt](const auto& axis) {
    if ((opt.grid.*axis.values).size() > 1)
      usage(std::string(axis.flag) + " takes one value on '" + opt.command +
            "' (comma-list axes belong to 'campaign')");
  });
}

/// The --dist value of a scalar command, or its own default.
path_length_distribution dist_or(const options& opt,
                                 path_length_distribution fallback) {
  return opt.given("--dist") ? opt.grid.lengths.front() : fallback;
}

/// Size caps, checked before anything is allocated. The simulator's
/// (sim::max_sim_nodes, sim::max_population, sim::max_messages,
/// sim::max_mix_failures, the event-load caps and net::max_graph_edges)
/// are rulebook rules, applied here to every axis value or grid cell so an
/// oversized sweep value is refused instead of skipped as an infeasible
/// cell. plan keeps about 100 bytes per node besides its graph's edges;
/// the attack workload's time grows with rounds times round size; the
/// figures' closed forms grow quadratically in N.
constexpr std::uint32_t max_nodes_plan = 10'000'000;
constexpr std::uint64_t max_attack_messages = 100'000'000;
constexpr std::uint32_t max_nodes_figures = 10'000;

void require_cap(const options& opt, const std::string& what,
                 std::uint64_t value, std::uint64_t cap) {
  if (value > cap)
    usage(what + " " + std::to_string(value) + " is too large for '" +
          opt.command + "' (at most " + std::to_string(cap) + ")");
}

void require_node_cap(const options& opt, std::uint32_t cap) {
  for (const std::uint32_t n : opt.grid.node_counts)
    require_cap(opt, "--n", n, cap);
}

/// A graph past net::max_graph_edges cannot be built in 4 GB; the closed
/// form refuses it before any edge is generated. Precondition:
/// topo.valid_for(n).
void require_graph_cap(const options& opt, std::uint32_t n,
                       const net::topology_config& topo) {
  const std::uint64_t edges = net::edge_count(n, topo);
  if (edges > net::max_graph_edges)
    usage("--topology " + topo.label() + " at --n " + std::to_string(n) +
          " wires " + std::to_string(edges) + " edges: too large for '" +
          opt.command + "' (at most " +
          std::to_string(net::max_graph_edges) + " edges)");
}

/// The C=1 closed form behind degree, optimize and figures needs N >= 5;
/// smaller systems are the Monte-Carlo engine's (estimate) domain.
void require_closed_form_n(const options& opt) {
  if (opt.grid.node_counts.front() < 5)
    usage(opt.command +
          "'s closed form needs --n >= 5 (estimate covers smaller systems)");
}

int cmd_degree(const options& opt) {
  const system_params sys{opt.grid.node_counts.front(), 1};
  const auto d = dist_or(opt, path_length_distribution::fixed(3));
  require_closed_form_n(opt);
  if (const char* why = sim::system_infeasible_reason(sys, d)) usage(why);
  const double h = anonymity_degree(sys, d);
  std::printf("strategy %s on N=%u, C=1: H* = %.6f bits (ceiling %.6f)\n",
              d.label().c_str(), sys.node_count, h, max_anonymity_degree(sys));
  if (opt.breakdown) {
    const auto b = anonymity_breakdown(sys, d);
    std::printf("  event class            probability   H(X|e) bits\n");
    std::printf("  sender compromised     %11.6f   %11.6f\n",
                b.p_sender_compromised, 0.0);
    std::printf("  c absent               %11.6f   %11.6f\n", b.p_absent,
                b.h_absent);
    std::printf("  c last hop             %11.6f   %11.6f\n", b.p_last,
                b.h_last);
    std::printf("  c penultimate          %11.6f   %11.6f\n", b.p_penultimate,
                b.h_penultimate);
    std::printf("  c mid-path             %11.6f   %11.6f\n", b.p_mid, b.h_mid);
  }
  return 0;
}

int cmd_estimate(const options& opt) {
  require_node_cap(opt, sim::max_sim_nodes);
  const std::uint32_t n = opt.grid.node_counts.front();
  const std::uint32_t c = opt.grid.compromised_counts.front();
  const system_params sys{n, c};
  const auto d = dist_or(opt, path_length_distribution::uniform(1, 10));
  if (const char* why = sim::system_infeasible_reason(sys, d)) usage(why);
  const std::vector<node_id> compromised = spread_compromised(n, c);
  const net::topology_config& topo = opt.grid.topologies.front();
  if (topo.kind != net::topology_kind::complete) {
    // Restricted graph: walk-model Monte Carlo on the topology engine.
    if (const char* why = topo.invalid_reason(n)) usage(why);
    require_graph_cap(opt, n, topo);
    const auto t0 = std::chrono::steady_clock::now();
    const auto est = net::estimate_topology_degree(
        sys, compromised, d, topo, opt.samples, opt.seed, opt.threads,
        opt.shards);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    std::printf("MC walk-model estimate for %s on N=%u, C=%u, topology %s:\n",
                d.label().c_str(), n, c, topo.label().c_str());
    std::printf("  H* = %.6f +/- %.6f bits (95%% CI)\n", est.degree,
                est.ci95());
    std::printf("  samples:       %llu in %llu shards (seed %llu)\n",
                static_cast<unsigned long long>(est.samples),
                static_cast<unsigned long long>(est.shards),
                static_cast<unsigned long long>(opt.seed));
    std::printf("  throughput:    %.0f samples/s (%.3f s)\n",
                static_cast<double>(est.samples) / secs, secs);
    return 0;
  }
  mc_config cfg;
  cfg.threads = opt.threads;
  cfg.shards = opt.shards;
  const auto t0 = std::chrono::steady_clock::now();
  const auto est = estimate_anonymity_degree(sys, compromised, d, opt.samples,
                                             opt.seed, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  std::printf("MC estimate for %s on N=%u, C=%u:\n", d.label().c_str(), n, c);
  std::printf("  H* = %.6f +/- %.6f bits (95%% CI)\n", est.degree, est.ci95());
  std::printf("  samples:       %llu in %llu shards (seed %llu)\n",
              static_cast<unsigned long long>(est.samples),
              static_cast<unsigned long long>(est.shards),
              static_cast<unsigned long long>(opt.seed));
  std::printf("  distinct obs:  %llu (%.1f%% dedup)\n",
              static_cast<unsigned long long>(est.distinct_observations),
              100.0 * (1.0 - static_cast<double>(est.distinct_observations) /
                                 static_cast<double>(est.samples)));
  std::printf("  throughput:    %.0f samples/s (%.3f s)\n",
              static_cast<double>(est.samples) / secs, secs);
  return 0;
}

int cmd_optimize(const options& opt) {
  const system_params sys{opt.grid.node_counts.front(), 1};
  require_closed_form_n(opt);
  const auto cap = static_cast<path_length>(sys.node_count - 1);
  if (!(opt.mean >= 0.0 && opt.mean <= cap))
    usage("--mean must lie in [0, --n minus 1]");
  const auto r = optimize_for_mean(sys, opt.mean, cap);
  std::printf("optimal distribution for N=%u, E[L]=%.2f: H* = %.6f bits\n",
              sys.node_count, opt.mean, r.degree);
  const auto& pmf = r.distribution.dense_pmf();
  for (path_length l = 0; l < pmf.size(); ++l)
    if (pmf[l] > 1e-9) std::printf("  Pr[L=%3u] = %.6f\n", l, pmf[l]);
  return 0;
}

/// Builds and validates the scenario grid the axis flags describe, shared
/// by 'campaign' (which runs it, whole or as one shard), 'merge' (which must
/// reconstruct the IDENTICAL grid — same flags, same validation — to
/// recompute the scope fingerprint the shard journals are checked against)
/// and 'simulate'/'capture' (a one-cell grid). `default_dist` and
/// `default_messages` are the command's own defaults.
sim::campaign_grid build_campaign_grid(
    const options& opt, const path_length_distribution& default_dist,
    std::uint32_t default_messages) {
  require_node_cap(opt, sim::max_sim_nodes);
  for (const std::uint32_t p : opt.grid.populations)
    require_cap(opt, "--population", p, sim::max_population);
  for (const sim::mix_failure_config& m : opt.grid.mix_failures)
    require_cap(opt, "--mix-failures", m.count, sim::max_mix_failures);
  sim::campaign_grid grid = opt.grid;
  if (!opt.given("--dist")) grid.lengths = {default_dist};
  grid.session_receiver_law = opt.receiver_law;
  grid.message_count =
      opt.given("--messages") ? opt.messages : default_messages;
  require_cap(opt, "--messages", grid.message_count, sim::max_messages);
  grid.identified_threshold = opt.threshold;
  // Session axes must be swept together: a --population axis with no
  // --rounds axis (or vice versa) would make every session cell incoherent
  // and silently filter the sweep the user asked for down to its
  // session-less cells. The other axis-level rules below likewise beat a
  // silently shrunken sweep.
  const auto any_but = [](const auto& values, const auto& off) {
    return std::any_of(values.begin(), values.end(),
                       [&off](const auto& v) { return v != off; });
  };
  const bool wants_population = any_but(grid.populations, 0u);
  const bool wants_rounds = any_but(grid.session_rounds, 0u);
  if (wants_population != wants_rounds)
    usage("session axes come in pairs: set --population and --rounds "
          "together (zeros in either list mean 'session off' cells)");
  if (opt.given("--receiver-law") && !wants_rounds)
    usage("--receiver-law on '" + opt.command +
          "' needs session cells (--population/--rounds); it is the "
          "session destination law");
  if (any_but(grid.attacks, attack::attack_kind::none) && !wants_rounds)
    usage("--attack on '" + opt.command +
          "' needs the session axes (--population/--rounds)");
  // A sketch backend only pairs with sda cells.
  if (any_but(grid.streams, workload::stream_backend::exact) &&
      std::find(grid.attacks.begin(), grid.attacks.end(),
                attack::attack_kind::sda) == grid.attacks.end())
    usage("--stream sketch on '" + opt.command +
          "' needs sda on the --attack axis (the sketch backend exists for "
          "the counting attack only)");
  for (std::uint32_t r : grid.session_rounds)
    if (r > grid.message_count)
      usage("--rounds values must be <= --messages (at least one message "
            "per mix round)");
  // The event-load caps bound a run's time, not its feasibility: every
  // cell must pass them, where an infeasible cell would only be skipped.
  // So does the graph-size cap, on every cell that builds a graph. The
  // scoring-work cap is refused on every cell whose first broken rule it
  // is, in the words a one-cell run refuses it with.
  for (std::uint64_t i = 0; i < grid.cell_count(); ++i) {
    const sim::scenario s = sim::grid_cell(grid, i);
    if (const char* why = sim::event_load_reason(
            s.node_count, grid.message_count, s.arrival_rate, s.churn,
            s.retry))
      usage(why);
    if (!sim::routes_on_graph(s.topology, s.routing) ||
        !s.topology.valid_for(s.node_count))
      continue;
    require_graph_cap(opt, s.node_count, s.topology);
    const char* cost = sim::scoring_load_reason(
        s.node_count, grid.message_count, s.retry, s.lengths, s.topology,
        s.routing);
    const char* first = cost ? sim::infeasible_reason(grid, s) : nullptr;
    if (first != nullptr && std::string_view(first) == cost)
      usage(std::string("infeasible scenario: ") + cost);
  }

  // Surface an empty grid as a usage error naming why its first cell
  // cannot run; run_campaign's internal precondition is not a user-facing
  // message.
  if (sim::expand_grid(grid).empty())
    usage(std::string(grid.cell_count() > 1
                          ? "no feasible grid cell; the first fails: "
                          : "infeasible scenario: ") +
          sim::infeasible_reason(grid, sim::grid_cell(grid, 0)));
  return grid;
}

/// simulate/capture run the one-cell campaign their flags describe, so
/// every flag reaches the run through the same grid, feasibility rules and
/// scenario_config as a campaign cell.
sim::sim_config single_run_config(const options& opt) {
  const sim::campaign_grid grid = build_campaign_grid(
      opt, path_length_distribution::uniform(1, 8), 2000);
  const sim::sim_config cfg =
      sim::scenario_config(sim::expand_grid(grid).front(), grid, opt.seed);
  // The one run must pass the whole rulebook, crash plan included (a
  // campaign instead fails the cell an outage does not fit into).
  if (const char* why = sim::invalid_reason(cfg))
    usage(std::string("infeasible scenario: ") + why);
  return cfg;
}

void print_sim_report(const sim::sim_config& cfg, const sim::sim_report& r) {
  std::printf(
      "simulated %llu msgs at %g/s on N=%u, C=%u, %s, adversary %s, "
      "topology %s, %s\n",
      static_cast<unsigned long long>(r.submitted), cfg.arrival_rate,
      cfg.sys.node_count,
      cfg.sys.compromised_count, cfg.lengths.label().c_str(),
      cfg.adversary.label().c_str(), cfg.topology.label().c_str(),
      cfg.faults.label().c_str());
  std::printf("  delivered:           %llu (%.1f%%)\n",
              static_cast<unsigned long long>(r.delivered),
              100.0 * static_cast<double>(r.delivered) /
                  static_cast<double>(r.submitted));
  std::printf("  mean latency:        %.1f ms\n",
              r.end_to_end_latency.mean() * 1000.0);
  std::printf("  mean hops:           %.2f\n", r.realized_hops.mean());
  std::printf("  empirical H*:        %.4f +/- %.4f bits\n",
              r.empirical_entropy_bits, 1.96 * r.empirical_entropy_stderr);
  std::printf("  identified fraction: %.2f%% (threshold %g)\n",
              100.0 * r.identified_fraction, cfg.identified_threshold);
  if (cfg.retry.enabled())
    std::printf("  retransmissions:     %llu (%s, %.3f per msg)\n",
                static_cast<unsigned long long>(r.retransmissions),
                cfg.retry.label().c_str(),
                static_cast<double>(r.retransmissions) /
                    static_cast<double>(r.submitted));
  if (r.session) {
    const sim::session_report& s = *r.session;
    std::printf("  session %s: target %u sent %llu msgs over %u rounds\n",
                cfg.session.label().c_str(), cfg.session.target_sender,
                static_cast<unsigned long long>(s.target_messages), s.rounds);
    std::printf("    attack posterior:  H = %.4f bits, top receiver %u "
                "(mass %.4f, %s)\n",
                s.entropy_bits, s.top_receiver, s.top_mass,
                s.correct ? "correct" : "wrong");
    if (s.identified && s.identified_round > 0)
      std::printf("    identified at round %u\n", s.identified_round);
    else
      std::printf("    not identified within %u rounds\n", s.rounds);
  }
}

int cmd_simulate(const options& opt) {
  sim::sim_config cfg = single_run_config(opt);
  obs::tracer tracer;
  if (!opt.metrics_path.empty()) cfg.tracer = &tracer;
  obs::progress_meter progress("simulate", 1, opt.progress);
  progress.advance(0);
  const auto r = sim::run_simulation(cfg);
  progress.advance(1);
  print_sim_report(cfg, r);
  if (!opt.metrics_path.empty()) {
    obs::metrics_registry reg;
    sim::harvest_report(reg, 0, r);
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  }
  return 0;
}

int cmd_capture(const options& opt) {
  const sim::sim_config cfg = single_run_config(opt);
  const sim::sim_trace trace = sim::capture_trace(cfg);
  if (opt.out_path.empty()) {
    sim::write_trace(trace, std::cout);
  } else {
    std::ofstream out(opt.out_path, std::ios::binary);
    if (!out.good()) usage("cannot open --out file for writing");
    sim::write_trace(trace, out);
    // Flush before checking: an ENOSPC trace often fails only when the
    // buffer drains, which the destructor would have swallowed.
    out.flush();
    if (!out.good())
      throw parse_error(parse_error_kind::io, "trace",
                        "write to '" + opt.out_path +
                            "' failed (disk full or I/O error)");
  }
  std::fprintf(stderr, "# captured %zu adversary events, %zu messages\n",
               trace.events.size(), trace.truths.size());
  return 0;
}

int cmd_replay(const options& opt) {
  // Replay's run (session and fault plan included) is defined entirely by
  // the trace.
  if (opt.in_path.empty()) usage("replay requires --in <trace file>");
  std::ifstream in(opt.in_path, std::ios::binary);
  if (!in.good()) usage("cannot open --in file");
  const sim::sim_trace trace = sim::read_trace(in);
  const auto r = sim::replay_trace(trace);
  print_sim_report(trace.config, r);
  return 0;
}

/// Execution config shared by 'campaign' and 'merge'; every field below is
/// part of the scope fingerprint or the seed derivation, so the two
/// commands MUST build it identically.
sim::campaign_config build_campaign_config(const options& opt) {
  sim::campaign_config cfg;
  cfg.replicas = opt.replicas;
  cfg.master_seed = opt.seed;
  cfg.threads = opt.threads;
  cfg.checkpoint_path = opt.checkpoint_path;
  cfg.resume = opt.resume;
  return cfg;
}

int cmd_campaign(const options& opt) {
  const sim::campaign_grid grid =
      build_campaign_grid(opt, path_length_distribution::fixed(3), 500);
  sim::campaign_config cfg = build_campaign_config(opt);
  if (opt.resume && opt.checkpoint_path.empty())
    usage("--resume requires --checkpoint <file>");
  const std::uint64_t grid_cells = sim::expand_grid(grid).size();
  if (opt.given("--shard")) {
    // The journal is a shard's only durable output (its CSV covers just
    // its own cells); running one without a checkpoint would leave
    // nothing for 'merge' to combine.
    if (opt.checkpoint_path.empty())
      usage("--shard requires --checkpoint <file> (the shard journal is "
            "what 'merge' combines)");
    cfg.shard_index = opt.shard_index;
    cfg.shard_count = opt.shard_count;
    if (opt.shard_count > grid_cells)
      usage("--shard count exceeds the grid's feasible cell count (some "
            "shards would own zero cells)");
  }

  // Observability: the registry and meter live here, at the process
  // boundary; run_campaign sees only non-owning pointers (null = off).
  // The meter is sized to this shard's local cell count, which is a pure
  // function of the grid and the shard split.
  obs::metrics_registry registry;
  if (!opt.metrics_path.empty()) cfg.metrics = &registry;
  obs::progress_meter progress(
      "campaign cells",
      sim::shard_cell_count(grid_cells, cfg.shard_index, cfg.shard_count),
      opt.progress);
  if (opt.progress) cfg.progress = &progress;

  // The whole fan-out is one root span, timed on this thread.
  obs::tracer tracer;
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = [&] {
    const obs::span campaign_span(
        opt.metrics_path.empty() ? nullptr : &tracer, "sim.campaign");
    return sim::run_campaign(grid, cfg);
  }();
  const auto t1 = std::chrono::steady_clock::now();
  // The snapshot is written before the CSV so a sharded campaign's
  // journal + metrics pair stays consistent even if stdout later fails;
  // the write itself is checked (parse_error{io} exits nonzero).
  if (!opt.metrics_path.empty())
    obs::write_metrics_file(opt.metrics_path, registry.snapshot(),
                            tracer.spans());
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  // Pure CSV on stdout (diffable across runs and thread counts); the run
  // synopsis goes to stderr.
  sim::write_csv(result, std::cout);
  if (cfg.shard_count > 1)
    std::fprintf(stderr, "# shard %u/%u: %llu of the grid's cells\n",
                 cfg.shard_index, cfg.shard_count,
                 static_cast<unsigned long long>(result.cells.size()));
  std::fprintf(stderr,
               "# campaign: %llu cells (%llu infeasible skipped) x %u "
               "replicas = %llu runs, %llu msgs, %.3f s\n",
               static_cast<unsigned long long>(result.cells.size()),
               static_cast<unsigned long long>(result.skipped_cells),
               cfg.replicas, static_cast<unsigned long long>(result.runs),
               static_cast<unsigned long long>(result.runs *
                                               grid.message_count),
               secs);
  std::uint64_t errored = 0;
  for (const sim::campaign_cell& cell : result.cells)
    if (!cell.error.empty()) ++errored;
  if (errored > 0)
    std::fprintf(stderr,
                 "# warning: %llu cell(s) failed; see the CSV error column\n",
                 static_cast<unsigned long long>(errored));
  return 0;
}

int cmd_merge(const options& opt) {
  if (opt.input_paths.empty())
    usage("merge requires at least one --input <shard checkpoint>");
  // The grid/config flags must repeat the sharded runs' flags exactly:
  // the scope fingerprint recomputed here is what authenticates the
  // shard journals as belonging to this campaign.
  const sim::campaign_grid grid =
      build_campaign_grid(opt, path_length_distribution::fixed(3), 500);
  const sim::campaign_config cfg = build_campaign_config(opt);
  obs::progress_meter progress("merge shards", opt.input_paths.size(),
                               opt.progress);
  progress.advance(0);
  const auto result = sim::merge_campaign(grid, cfg, opt.input_paths);
  progress.advance(opt.input_paths.size());

  // Shard metrics ride next to the shard journals: each --input FILE is
  // expected to carry a FILE.metrics sibling (the shard's campaign run
  // with --metrics FILE.metrics). Counters and histogram bins sum, so the
  // merged snapshot's stable metrics equal an unsharded run's; a missing
  // or corrupt sibling is a loud parse_error, never a silent skip.
  if (!opt.metrics_path.empty()) {
    obs::metrics_snapshot merged;
    for (const std::string& in : opt.input_paths)
      merged = obs::merge_snapshots(
          merged, obs::read_metrics_file(in + ".metrics").metrics);
    obs::write_metrics_file(opt.metrics_path, merged, {});
  }

  // With --checkpoint, also emit the merged result as an UNSHARDED
  // journal — byte-identical to the one a single-process run would have
  // left behind, and resumable/auditable as such.
  if (!opt.checkpoint_path.empty()) {
    std::ofstream out(opt.checkpoint_path, std::ios::out | std::ios::trunc);
    if (!out)
      throw parse_error(parse_error_kind::io, "checkpoint",
                        "cannot open '" + opt.checkpoint_path +
                            "' for writing");
    sim::write_checkpoint_header(out, sim::campaign_scope(grid, cfg));
    for (std::uint64_t i = 0; i < result.cells.size(); ++i)
      sim::append_checkpoint_cell(out, i, result.cells[i]);
    out.flush();
    if (!out)
      throw parse_error(parse_error_kind::io, "checkpoint",
                        "write to '" + opt.checkpoint_path +
                            "' failed (disk full or I/O error)");
  }

  sim::write_csv(result, std::cout);
  std::fprintf(stderr,
               "# merge: %llu cells (%llu infeasible skipped) from %zu "
               "shard journal(s)\n",
               static_cast<unsigned long long>(result.cells.size()),
               static_cast<unsigned long long>(result.skipped_cells),
               opt.input_paths.size());
  return 0;
}

int cmd_attack(const options& opt) {
  const attack::attack_kind kind = opt.grid.attacks.front();
  if (kind == attack::attack_kind::none)
    usage("attack requires --attack intersection|sda|bayes");
  // --stream asks for the online conformance report (exact: the
  // online==offline identity; sketch: the sketched engine plus its bound
  // and memory cross-checks), which only the counting attack defines.
  const bool stream_given = opt.given("--stream");
  const workload::stream_backend stream = opt.grid.streams.front();
  if (stream_given && kind != attack::attack_kind::sda)
    usage("--stream on 'attack' requires --attack sda (the accumulator "
          "backends exist for the counting attack)");

  workload::population_config cfg;
  cfg.seed = opt.seed;
  cfg.user_count = opt.users;
  // Defaulting happens only when the flag is absent; an explicit
  // --population 0 is out of range and exits loudly below.
  cfg.receiver_count =
      opt.given("--population") ? opt.grid.populations.front() : opt.users;
  cfg.round_count =
      opt.given("--rounds") ? opt.grid.session_rounds.front() : 200;
  cfg.persistent_pairs = opt.pairs;
  cfg.persistent_rate = opt.send_rate;
  cfg.round_size = opt.round_size;
  cfg.sender_law = opt.sender_law;
  cfg.receiver_law = opt.receiver_law;
  require_cap(opt, "--users", cfg.user_count, sim::max_population);
  require_cap(opt, "--population", cfg.receiver_count, sim::max_population);
  require_cap(opt, "--rounds x --round-size",
              std::uint64_t{cfg.round_count} * cfg.round_size,
              max_attack_messages);
  if (cfg.receiver_count < 2) usage("--population must be >= 2");
  if (cfg.round_count < 1) usage("--rounds must be >= 1");
  if (!cfg.valid()) usage("attack workload parameters out of range "
                          "(--pairs <= --users?)");
  if (opt.threshold <= 0.0 || opt.threshold >= 1.0)
    usage("--threshold must be in (0, 1)");

  const workload::population pop(cfg);
  // Sub-unit send rates make round membership noisy (a coincidental
  // background send marks a partnerless round); give the Bayes engine the
  // principled noise estimate so one such round cannot irreversibly
  // annihilate the true partner, and the configured receiver law as its
  // exact background — at --send-rate 1 there are no background rounds to
  // learn it from, and a skewed unlearned background misreads popularity
  // as partnership. Only Bayes consumes either; skip for the other kinds.
  attack::sequential_bayes_config bayes;
  if (kind == attack::attack_kind::sequential_bayes) {
    bayes.membership_noise = attack::estimated_membership_noise(pop, 0);
    bayes.background_pmf =
        workload::popularity_pmf(cfg.receiver_law, cfg.receiver_count);
  }
  if (kind == attack::attack_kind::sda && opt.send_rate >= 1.0 &&
      cfg.receiver_law.kind != workload::popularity_kind::uniform)
    std::fprintf(stderr,
                 "# note: --send-rate 1 leaves sda no background rounds; its "
                 "background estimate stays uniform, which misranks popular "
                 "receivers under %s — lower --send-rate for a calibrated "
                 "subtraction\n",
                 cfg.receiver_law.label().c_str());
  auto engine = attack::make_attack(kind, cfg.receiver_count, bayes);
  const std::uint32_t stride =
      opt.every != 0 ? opt.every : std::max(1u, cfg.round_count / 100);

  obs::metrics_registry reg;
  obs::tracer tracer;
  obs::tracer* const tp = opt.metrics_path.empty() ? nullptr : &tracer;
  obs::progress_meter progress("attack rounds", cfg.round_count,
                               opt.progress);
  progress.advance(0);
  const auto t0 = std::chrono::steady_clock::now();
  const attack::attack_result result = [&] {
    obs::span run_span(tp, "attack.run");
    return attack::run_workload_attack(pop, 0, *engine, opt.threshold,
                                       stride);
  }();
  const auto t1 = std::chrono::steady_clock::now();
  progress.advance(cfg.round_count);
  if (tp != nullptr) {
    reg.add_counter("attack.rounds_ingested", cfg.round_count);
    reg.add_counter("attack.trajectory_points", result.trajectory.size());
  }
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  // Trajectory CSV on stdout; run synopsis on stderr (diffable, like
  // campaign).
  std::printf("round,entropy_bits,top_mass,top_receiver,identified\n");
  for (const attack::trajectory_point& pt : result.trajectory)
    std::printf("%u,%.9g,%.9g,%u,%d\n", pt.round, pt.entropy_bits,
                pt.top_mass, pt.top_receiver, pt.identified ? 1 : 0);

  const workload::persistent_pair truth = pop.pairs().front();
  std::fprintf(stderr, "# attack %s on %s (seed %llu): %.3f s\n",
               attack::attack_kind_label(kind), cfg.label().c_str(),
               static_cast<unsigned long long>(cfg.seed), secs);
  std::fprintf(stderr, "# target pair 0: sender %u -> receiver %u\n",
               truth.sender, truth.receiver);
  if (result.identified_round)
    std::fprintf(stderr,
                 "# identified at round %u: receiver %u (mass %.4f, %s)\n",
                 *result.identified_round, result.top_receiver,
                 result.top_mass,
                 result.top_receiver == truth.receiver ? "correct" : "WRONG");
  else
    std::fprintf(stderr,
                 "# not identified within %u rounds (top receiver %u, mass "
                 "%.4f, H = %.4f bits)\n",
                 result.rounds, result.top_receiver, result.top_mass,
                 result.entropy_bits);

  if (kind == attack::attack_kind::sda && (opt.threads != 1 || stream_given)) {
    // The sharded population-scale path must reproduce the streaming counts
    // bit for bit; a mismatch is a determinism bug, reported loudly.
    workload::cooccurrence_config ccfg;
    ccfg.threads = opt.threads;
    const workload::streaming_accumulator exact_acc = [&] {
      obs::span accumulate_span(tp, "workload.accumulate_exact");
      return workload::accumulate_streaming(
          pop, 0, cfg.round_count, workload::streaming_config{}, ccfg);
    }();
    const workload::cooccurrence_result totals = exact_acc.totals();
    if (tp != nullptr) {
      reg.add_counter("stream.rounds_accumulated", totals.rounds);
      reg.set_gauge("stream.exact_memory_bytes",
                    static_cast<double>(exact_acc.memory_bytes()));
    }
    const bool exact_agrees = [&] {
      obs::span verify_span(tp, "attack.verify");
      return attack::sda_attack::from_counts(totals, 0, cfg.receiver_count)
                 .posterior() == result.final_posterior;
    }();
    if (!exact_agrees) {
      std::fprintf(stderr,
                   "# ERROR: sharded accumulator diverged from streaming "
                   "counts\n");
      return 1;
    }
    std::fprintf(stderr,
                 "# accumulator cross-check (%u threads over %llu rounds): "
                 "identical\n",
                 opt.threads != 0 ? opt.threads
                                  : std::thread::hardware_concurrency(),
                 static_cast<unsigned long long>(totals.rounds));
    if (stream_given)
      std::fprintf(stderr,
                   "# online==offline: final posterior bit-identical "
                   "(exact backend)\n");

    if (stream == workload::stream_backend::sketch) {
      // Online sketched session over the same round stream.
      attack::sketch_sda_attack online_sketch(cfg.receiver_count);
      const attack::attack_result sres = [&] {
        obs::span ingest_span(tp, "attack.ingest");
        return attack::run_workload_attack(pop, 0, online_sketch,
                                           opt.threshold, stride);
      }();

      // The sharded sketch accumulation must reproduce online ingestion
      // bit for bit — same contract as the exact path above.
      workload::streaming_config scfg;
      scfg.backend = workload::stream_backend::sketch;
      const workload::streaming_accumulator sketch_acc = [&] {
        obs::span accumulate_span(tp, "workload.accumulate_sketch");
        return workload::accumulate_streaming(pop, 0, cfg.round_count, scfg,
                                              ccfg);
      }();
      // Covers this cross-check and the count-min bound check below.
      obs::span verify_span(tp, "attack.verify");
      if (attack::sketch_sda_attack::from_accumulator(sketch_acc, 0,
                                                      cfg.receiver_count)
              .posterior() != sres.final_posterior) {
        std::fprintf(stderr,
                     "# ERROR: sharded sketch accumulator diverged from "
                     "online ingestion\n");
        return 1;
      }
      if (tp != nullptr) {
        reg.set_gauge("stream.memory_bytes",
                      static_cast<double>(online_sketch.memory_bytes()));
        reg.set_gauge("stream.sketch_occupied_cells",
                      static_cast<double>(online_sketch.occupied_cells()));
        reg.set_gauge("stream.candidates_retained",
                      static_cast<double>(online_sketch.candidates().size()));
        // Ingest-order-dependent telemetry: recorded only on this
        // single-threaded online path, never compared across thread counts.
        reg.add_counter("stream.reservoir_evictions",
                        online_sketch.reservoir_evictions());
      }

      // Count-min conformance against the exact counts: estimates never
      // undercount (worst-case), and each key overcounts past the bound
      // with probability at most 2^-depth — so across all keys, allow
      // twice that expected violation count before calling it a bug.
      std::uint64_t max_over = 0, over_bound = 0;
      bool under = false;
      for (const auto& [receiver, count] : totals.global_receiver_counts) {
        const std::uint64_t est = online_sketch.estimate_global(receiver);
        if (est < count) { under = true; continue; }
        max_over = std::max(max_over, est - count);
        if (est - count > online_sketch.error_bound()) ++over_bound;
      }
      const std::size_t keys = totals.global_receiver_counts.size();
      const double allowance =
          2.0 * std::ldexp(static_cast<double>(keys),
                           -static_cast<int>(online_sketch.params().depth)) +
          1.0;
      if (under || static_cast<double>(over_bound) > allowance) {
        std::fprintf(stderr,
                     "# ERROR: sketch estimates violate the count-min "
                     "bound (%llu/%zu keys over bound %llu, allowance "
                     "%.0f%s)\n",
                     static_cast<unsigned long long>(over_bound), keys,
                     static_cast<unsigned long long>(
                         online_sketch.error_bound()),
                     allowance, under ? ", undercount seen" : "");
        return 1;
      }
      std::fprintf(stderr,
                   "# sketch bound check: %llu/%zu keys over the per-key "
                   "bound %llu (allowance %.0f), max overestimate %llu, "
                   "no undercounts\n",
                   static_cast<unsigned long long>(over_bound), keys,
                   static_cast<unsigned long long>(
                       online_sketch.error_bound()),
                   allowance, static_cast<unsigned long long>(max_over));

      std::fprintf(stderr,
                   "# sketch posterior (%s, %zu candidates%s): top receiver "
                   "%u (%s exact), H = %.4f bits\n",
                   online_sketch.params().label().c_str(),
                   online_sketch.candidates().size(),
                   online_sketch.candidates_saturated() ? ", saturated" : "",
                   sres.top_receiver,
                   sres.top_receiver == result.top_receiver
                       ? "matches" : "DIFFERS from",
                   sres.entropy_bits);
      std::fprintf(stderr,
                   "# memory: sketch engine %zu bytes, exact accumulator "
                   "%zu bytes (exact/sketch ratio %.2f)\n",
                   online_sketch.memory_bytes(), exact_acc.memory_bytes(),
                   static_cast<double>(exact_acc.memory_bytes()) /
                       static_cast<double>(online_sketch.memory_bytes()));
    }
  }
  if (tp != nullptr)
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  return 0;
}

/// Graph-scale diagnostics: builds the topology, runs one full Dijkstra
/// tree, extracts --routes shortest routes to seeded random targets, and —
/// when --routing kpaths is given — plans the same number of
/// k-shortest-path routes through net::route_planner. Each phase is an obs
/// span (net.build, net.components, net.dijkstra, net.routes, net.yen);
/// its duration goes to stdout so regressions are visible in logs, and
/// --metrics writes the spans.
int cmd_plan(const options& opt) {
  require_node_cap(opt, max_nodes_plan);
  const std::uint32_t n = opt.grid.node_counts.front();
  if (n < 2) usage("plan needs --n >= 2");
  if (opt.plan_source >= n) usage("--source out of range for --n");
  const net::topology_config& topo_cfg = opt.grid.topologies.front();
  if (const char* why = topo_cfg.invalid_reason(n)) usage(why);
  require_graph_cap(opt, n, topo_cfg);
  // Planning work counters are pure functions of the graph and the query
  // sequence, so they land in the snapshot as stable metrics.
  net::plan_counters counters;
  obs::metrics_registry reg;
  obs::progress_meter progress("plan routes", opt.plan_routes, opt.progress);
  obs::tracer tracer;
  // The phases do not nest, so the last span record is the one just closed.
  const auto span_s = [&tracer] {
    return tracer.spans().back().duration_ms / 1e3;
  };

  const net::topology topo = [&] {
    const obs::span s(&tracer, "net.build");
    return net::topology::make(n, topo_cfg);
  }();
  std::printf("built %s: N=%u, %llu edges, csr storage, %.3f s\n",
              topo_cfg.label().c_str(), n,
              static_cast<unsigned long long>(topo.edge_count()), span_s());

  if (opt.plan_components) {
    const std::vector<std::uint32_t> comp = [&] {
      const obs::span s(&tracer, "net.components");
      return net::connected_components(topo);
    }();
    // Labels are 0-based in first-discovery order, so the count is one past
    // the largest label.
    std::uint32_t count = 0;
    for (std::uint32_t label : comp) count = std::max(count, label + 1);
    std::printf("components: %u, %.3f s\n", count, span_s());
  }

  const net::shortest_path_tree tree = [&] {
    const obs::span s(&tracer, "net.dijkstra");
    return net::dijkstra(topo, opt.plan_source, &counters);
  }();
  std::uint64_t reachable = 0;
  double eccentricity = 0.0;
  for (double d : tree.dist)
    if (d < std::numeric_limits<double>::infinity()) {
      ++reachable;
      eccentricity = std::max(eccentricity, d);
    }
  std::printf("dijkstra from %u: %llu reachable, eccentricity cost %.6g, "
              "%.3f s\n",
              opt.plan_source, static_cast<unsigned long long>(reachable),
              eccentricity, span_s());

  // Shortest routes to seeded random targets: O(path length) parent-chain
  // walks off the one tree, the way a source-routed sender would plan.
  stats::rng gen(opt.seed);
  std::uint64_t hop_total = 0;
  {
    const obs::span s(&tracer, "net.routes");
    progress.advance(0);
    for (std::uint32_t i = 0; i < opt.plan_routes; ++i) {
      auto target = static_cast<node_id>(gen.next_below(n - 1));
      if (target >= opt.plan_source) ++target;
      for (node_id v = target;
           v != opt.plan_source && v != net::no_vertex; v = tree.parent[v])
        ++hop_total;
      progress.advance(i + 1);
    }
  }
  std::printf("%u shortest routes: mean hops %.2f, %.3f s\n", opt.plan_routes,
              static_cast<double>(hop_total) /
                  static_cast<double>(opt.plan_routes),
              span_s());

  if (opt.grid.routings.front().planned()) {
    net::route_planner planner(topo, opt.grid.routings.front());
    std::uint64_t planned_hops = 0;
    {
      const obs::span s(&tracer, "net.yen");
      for (std::uint32_t i = 0; i < opt.plan_routes; ++i) {
        const auto sender = static_cast<node_id>(gen.next_below(n));
        const route r = sample_planned_route(planner, sender, gen);
        planned_hops += r.hops.size();
      }
    }
    std::printf("%u %s routes: mean hops %.2f, %.3f s\n", opt.plan_routes,
                planner.config().label().c_str(),
                static_cast<double>(planned_hops) /
                    static_cast<double>(opt.plan_routes),
                span_s());
    const net::plan_counters& yen = planner.counters();
    counters.dijkstra_runs += yen.dijkstra_runs;
    counters.nodes_settled += yen.nodes_settled;
    counters.edges_scanned += yen.edges_scanned;
    counters.yen_spur_searches += yen.yen_spur_searches;
  }
  if (!opt.metrics_path.empty()) {
    reg.add_counter("plan.dijkstra_runs", counters.dijkstra_runs);
    reg.add_counter("plan.nodes_settled", counters.nodes_settled);
    reg.add_counter("plan.edges_scanned", counters.edges_scanned);
    reg.add_counter("plan.yen_spur_searches", counters.yen_spur_searches);
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  }
  return 0;
}

int cmd_figures(const options& opt) {
  require_closed_form_n(opt);
  require_node_cap(opt, max_nodes_figures);
  const system_params sys{opt.grid.node_counts.front(), 1};
  repro::print_figure(repro::fig3a(sys), std::cout);
  repro::print_figure(repro::fig3b(sys), std::cout);
  for (char p : {'a', 'b', 'c', 'd'}) {
    repro::print_figure(repro::fig4(sys, p), std::cout);
    repro::print_figure(repro::fig5(sys, p), std::cout);
  }
  const auto fig6_span =
      std::min<path_length>(50, static_cast<path_length>(sys.node_count - 1));
  repro::print_figure(repro::fig6(sys, fig6_span), std::cout);
  return 0;
}

struct command_spec {
  const char* name;
  unsigned bit;  ///< the command's on:: bit in flag_table
  int (*run)(const options& opt);
};

constexpr command_spec command_table[] = {
    {"degree", on::degree, cmd_degree},
    {"estimate", on::estimate, cmd_estimate},
    {"optimize", on::optimize, cmd_optimize},
    {"figures", on::figures, cmd_figures},
    {"replay", on::replay, cmd_replay},
    {"simulate", on::simulate, cmd_simulate},
    {"capture", on::capture, cmd_capture},
    {"campaign", on::campaign, cmd_campaign},
    {"merge", on::merge, cmd_merge},
    {"attack", on::attack, cmd_attack},
    {"plan", on::plan, cmd_plan},
};

template <class Entry, std::size_t N>
const Entry* find_named(const Entry (&table)[N], const std::string& name) {
  for (const Entry& entry : table)
    if (name == entry.name) return &entry;
  return nullptr;
}

/// Reads argv into options. A flag the command does not read exits 2
/// before its value is parsed, naming the commands that do read it.
options parse(int argc, char** argv) {
  if (argc < 2) usage();
  options opt;
  opt.command = argv[1];
  const command_spec* command = find_named(command_table, opt.command);
  if (command == nullptr) usage("unknown command");
  try {
    for (int i = 2; i < argc; ++i) {
      std::string flag = argv[i], value;
      const bool inline_value = flag.rfind("--metrics=", 0) == 0;
      if (inline_value) {
        value = flag.substr(std::strlen("--metrics="));
        flag = "--metrics";
      }
      const flag_spec* spec = find_named(flag_table, flag);
      if (spec == nullptr) usage("unknown flag " + flag);
      if ((spec->readers & command->bit) == 0) {
        std::string readers;
        for (const command_spec& c : command_table)
          if ((spec->readers & c.bit) != 0)
            readers += (readers.empty() ? "" : ", ") + std::string(c.name);
        usage(flag + " does not apply to '" + opt.command +
              "'; it is read by " + readers);
      }
      if (spec->takes_value && !inline_value) {
        if (i + 1 >= argc) usage("missing value for flag");
        value = argv[++i];
      }
      spec->parse(opt, spec->name, value);
      opt.flags_given.insert(flag);
    }
  } catch (const parse_error& e) {
    usage(e.what());
  }
  if ((command->bit & on::sweep) == 0) require_one_value_per_axis(opt);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // A reader that closes the pipe must surface as a checked write failure
  // (EPIPE -> bad stream state below), not kill the process mid-output
  // with no diagnostic and no exit code of ours.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  const options opt = parse(argc, argv);
  int rc;
  try {
    rc = find_named(command_table, opt.command)->run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Every command streams its primary output (CSV, traces, figures)
  // through std::cout or C stdout. Both are buffered: a full disk or a
  // closed pipe often only shows up at the final flush, after the command
  // already "succeeded". Verify delivery before claiming success — a
  // truncated CSV that exits 0 is a silently dropped result.
  std::cout.flush();
  const bool cout_ok = std::cout.good();
  const bool stdout_ok = std::fflush(stdout) == 0 && std::ferror(stdout) == 0;
  if (rc == 0 && !(cout_ok && stdout_ok)) {
    std::fprintf(stderr,
                 "error: writing output to stdout failed "
                 "(disk full or closed pipe?)\n");
    return 1;
  }
  return rc;
}
