#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/sender_inference.hpp"
#include "src/anonymity/strategy.hpp"
#include "src/anonymity/types.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/obs/span.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/network.hpp"
#include "src/sim/session.hpp"
#include "src/stats/summary.hpp"

namespace anonpath::sim {

/// Everything needed to run one end-to-end experiment on the simulated
/// rerouting network.
struct sim_config {
  system_params sys{100, 1};
  std::vector<node_id> compromised{0};
  path_length_distribution lengths = path_length_distribution::fixed(3);
  routing_mode mode = routing_mode::source_routed;
  double forward_prob = 0.75;     ///< hop-by-hop coin (crowds mode only)
  std::uint32_t message_count = 1000;
  double arrival_rate = 50.0;     ///< messages per second (Poisson)
  latency_params latency{};
  std::uint64_t seed = 1;
  /// The threat model this run faces. The default (full coalition over the
  /// `compromised` list, receiver compromised) is the paper's Sec. 4
  /// adversary and reproduces pre-refactor behavior bit for bit. For
  /// partial_coverage the `compromised` list is superseded by a seeded
  /// Bernoulli(coverage_fraction) draw — see effective_compromised().
  adversary_config adversary{};
  /// A message counts as "identified" when its posterior puts strictly more
  /// than this mass on one node (paper-style 0.99 by default).
  double identified_threshold = 0.99;
  /// Keep every delivered message's exact sender posterior in the report
  /// (source-routed runs only). Off by default — the vectors are N doubles
  /// per message; the property tests and post-hoc analyses turn it on.
  bool collect_posteriors = false;
  /// The rerouting graph the run lives on. The default (`complete`) is the
  /// paper's clique and reproduces pre-topology behavior bit for bit: the
  /// historical simple-path sampler, engines, and rng draw sequences are
  /// used unchanged. Any other kind routes messages as weighted walks on
  /// the graph and scores observations with the restricted-path
  /// topology_posterior_engine. Restricted graphs do not support the
  /// timing_correlator adversary (its gapped observations have no exact
  /// graph likelihood yet); run_core rejects that combination.
  net::topology_config topology{};
  /// The run's unified fault model (sim::fault_plan): per-link loss,
  /// stochastic churn, explicit crash/repair intervals, and seeded
  /// mix-failure episodes. The inert default draws from no generator and
  /// reproduces the fault-free network bit for bit; enabled, transmissions
  /// are dropped on the wire or strand at dead hops (undelivered).
  fault_plan faults{};
  /// Sender-side recovery (sim::retry_policy): timed-out messages are
  /// re-injected over fresh routes with capped exponential backoff. Every
  /// retransmission is a *new* adversary observation of the same sender;
  /// scoring fuses the per-attempt posteriors, so enabling retries trades
  /// anonymity for delivery. Disabled by default (no timers, no extra
  /// draws): retry-free runs stay byte-identical.
  retry_policy retry{};
  /// Round-batched session mode (src/sim/session.hpp): pseudonymous
  /// destinations over mix rounds plus an optional longitudinal disclosure
  /// attack scored per round. Disabled (the default) is byte-identical to
  /// pre-session behavior; enabled requires source_routed mode.
  session_config session{};
  /// Route selection model (net::routing_config). The default (`walk`) is
  /// byte-identical to pre-routing behavior: source-routed messages sample
  /// simple paths (clique) or weighted walks (restricted graphs) exactly as
  /// before, drawing from the historical rng streams. `kpaths` switches to
  /// planned routing — each message picks a uniform exit and one of its k
  /// best Dijkstra/Yen paths (cost-weighted), drawn from dedicated
  /// order-free rng streams so walk-mode draw sequences are untouched.
  /// Planned runs are scored with net::topology_posterior_engine under a
  /// diffuse uniform(1, N-1) length prior. Requires source_routed mode and
  /// a non-timing adversary.
  net::routing_config routing{};
  /// Optional span collector (non-owning; default off). When set,
  /// run_simulation records a "sim.run" span with "sim.run_core" /
  /// "sim.score" / "attack.ingest" children on the calling thread. Never
  /// touches results, rng streams, or outputs — a null tracer is
  /// byte-identical to pre-obs behavior — and single-threaded like the
  /// tracer itself, so campaign workers leave it null.
  obs::tracer* tracer = nullptr;
};

/// Largest N the simulator runs. It keeps per-node relay state and N-length
/// posteriors, so a larger run cannot fit in a 4 GB address space.
inline constexpr std::uint32_t max_sim_nodes = 1'000'000;
/// Largest session receiver population (the disclosure attacks keep
/// population-length state); the CLI's attack workload shares it.
inline constexpr std::uint32_t max_population = 10'000'000;
/// Largest message count. The run keeps per-message outcomes and adversary
/// logs: 1e6 messages at N = 24 take about 11 s and 0.5 GB.
inline constexpr std::uint32_t max_messages = 1'000'000;
/// Largest number of seeded mix-failure episodes. Each becomes a scheduled
/// outage: 1e6 of them take about 0.2 s, 1e7 about 2.5 s.
inline constexpr std::uint32_t max_mix_failures = 1'000'000;
/// Largest expected number of churn transitions: both edges of every
/// node's down/up cycle over the traffic span (--messages / --rate). Each
/// is a seeded draw on the event path: 5e8 take about 6 s at N = 24.
inline constexpr double max_churn_transitions = 1e9;
/// Largest worst-case attempt count, message_count x (max_retries + 1).
/// Each attempt re-walks a fresh route: 2e6 of them at --drop 0.99 take
/// about 13 s at N = 24.
inline constexpr std::uint64_t max_attempts = 2'000'000;

/// Largest worst-case scoring work on a graph: worst-case attempts x
/// (longest route + 1) x arcs (two per undirected edge). Scoring one
/// observation with the topology posterior engine costs about
/// (longest route + 1) honest-step sweeps over every arc, and each attempt
/// may be a distinct observation. Planned (kpaths) runs score under
/// uniform(1, N-1), so their longest route is N - 1. 2e10 of it took
/// 17 s (N = 1000, kpaths:2, 20 messages on the complete graph), so the
/// worst admitted run scores in about 13 s.
inline constexpr double max_scoring_work = 1.5e10;

/// The event-load rules: nullptr, or why a run's expected churn
/// transitions or worst-case attempts pass the caps above. O(1), on valid
/// churn and retry parameters and a positive arrival rate. invalid_reason
/// applies it; the CLI also applies it to every campaign cell, so an
/// oversized cell is refused instead of skipped as infeasible.
[[nodiscard]] const char* event_load_reason(std::uint32_t node_count,
                                            std::uint32_t message_count,
                                            double arrival_rate,
                                            const net::churn_config& churn,
                                            const retry_policy& retry);

/// max_scoring_work's rule: nullptr, or why scoring a source-routed run on
/// its graph costs too much. Precondition: the topology is valid for
/// node_count and passes net::max_graph_edges. invalid_reason applies it to
/// source-routed runs that build a graph; the CLI refuses every campaign
/// cell whose first broken rule it is, instead of skipping the cell.
[[nodiscard]] const char* scoring_load_reason(
    std::uint32_t node_count, std::uint32_t message_count,
    const retry_policy& retry, const path_length_distribution& lengths,
    const net::topology_config& topology, const net::routing_config& routing);

/// The rules on (N, C, path lengths) alone: nullptr when the anonymity
/// engines accept them (C <= N, N >= 2, every length fits a simple path),
/// else the reason. invalid_reason starts with them; the scalar commands
/// (degree, estimate) check them before calling the engines.
[[nodiscard]] const char* system_infeasible_reason(
    const system_params& sys, const path_length_distribution& lengths);

/// The one rulebook for a runnable sim_config: nullptr when run_simulation
/// and capture_trace accept it, else the rule it breaks, in words that name
/// the CLI flag where there is one. run_core asserts it, read_trace refuses
/// a trace that breaks it (out_of_range), and the CLI refuses such a config
/// before running it, so capture never writes a trace replay refuses. The
/// caps above are rules here, so an oversized config is refused before
/// anything N-, population- or message-sized is allocated.
[[nodiscard]] const char* invalid_reason(const sim_config& config);

/// Results of a simulation run.
struct sim_report {
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  /// Extra attempts injected by the retry policy (0 when disabled).
  std::uint64_t retransmissions = 0;
  stats::running_summary end_to_end_latency;  ///< seconds
  stats::running_summary realized_hops;       ///< intermediate nodes traversed
  /// Delivered-message count per realized hop count (index = hops); sized
  /// to the largest observed value. The goodness-of-fit test layer checks
  /// this histogram against the configured path_length_distribution.
  std::vector<std::uint64_t> hop_histogram;

  /// Mean posterior entropy of the adversary across scored messages — the
  /// empirical counterpart of H*(S). Only computed for source-routed
  /// (simple-path) runs, where the exact inference engine applies; NaN for
  /// hop-by-hop runs and for runs where the adversary observed nothing
  /// (the metric is absent, not zero — likewise the identified/top1
  /// fractions below).
  double empirical_entropy_bits = 0.0;
  /// Standard error of that mean.
  double empirical_entropy_stderr = 0.0;
  /// Fraction of messages whose posterior puts > identified_threshold mass
  /// on one node.
  double identified_fraction = 0.0;
  /// Fraction where the top-posterior node is the true sender (among
  /// identified messages this should be ~1; overall it measures leakage).
  double top1_accuracy = 0.0;
  /// One exact posterior (size N) per scored message, in scoring order.
  /// Only filled when sim_config::collect_posteriors is set on a
  /// source-routed run; empty otherwise.
  std::vector<std::vector<double>> posteriors;
  /// Longitudinal attack results; engaged only when the config enables a
  /// session with an attack kind other than none.
  std::optional<session_report> session;

  /// Always-on run telemetry for the obs metrics layer (src/obs): plain
  /// counters the run maintains anyway, deterministic under the seed.
  /// events_executed counts every discrete event the run's queue fired;
  /// the wire_* fields split undelivered transmissions by cause (failure
  /// injection, churned-down destination, crash-scheduled destination);
  /// memo_hits/memo_misses count the clique posterior_engine's layout-memo
  /// lookups this run made, when it was scored by one (0 under the
  /// topology engine, which has no layout memo, and under a caller-supplied
  /// posterior_fn). A campaign replica counts the lookups it made through
  /// its cell's shared engine and observation memo, so fewer than a fresh
  /// run makes. obs_memo_hits/obs_memo_misses count the observation memo in
  /// front of every built-in engine with its per-run meaning: one lookup
  /// per observed message, a miss for each observation new to this run
  /// (whether or not the cell's memo already held it), or 0 when retry
  /// fusion, collect_posteriors or a caller-supplied posterior_fn needs
  /// every posterior vector.
  std::uint64_t events_executed = 0;
  std::uint64_t wire_dropped = 0;
  std::uint64_t wire_stranded = 0;
  std::uint64_t wire_crashed = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t obs_memo_hits = 0;
  std::uint64_t obs_memo_misses = 0;
};

/// Builds the fabric, adversary and workload from the config, runs to
/// completion, and post-processes the adversary's log with the exact
/// posterior engine. Deterministic under the seed. `graph`, when
/// non-null, is the run's topology already built — it must equal
/// net::topology::make(N, config.topology) — and is borrowed, read-only,
/// for routing and scoring instead of being rebuilt; a campaign lends one
/// to every replica of a cell. Null builds it when the run needs one.
[[nodiscard]] sim_report run_simulation(const sim_config& config,
                                        const net::topology* graph = nullptr);

/// An offline inference engine for replay scoring: maps an assembled
/// observation to a sender posterior over all N nodes, in place of the
/// built-in engine run_simulation and replay_trace(trace) use. It runs
/// once per observed attempt, never memoized. An empty result marks an
/// observation the engine cannot explain; scoring skips it, as it skips
/// those the built-in engines cannot explain.
using posterior_fn = std::function<std::vector<double>(const observation&)>;

/// One message's ground truth under its id.
struct message_truth {
  std::uint64_t msg = 0;
  message_outcome outcome;

  friend bool operator==(const message_truth&, const message_truth&) = default;
};

/// A run as its event log: everything needed to score the adversary's view
/// of a simulation after the fact, inline or offline. run_simulation scores
/// the trace its event half returns; sim::trace (src/sim/trace.hpp)
/// captures one, serializes it, and replays it — so one captured run can be
/// scored by any number of inference engines without re-running the
/// discrete-event engine.
///
/// Contents:
///   * `config`      — the full sim_config that produced the run (seed
///                     included), so a trace is also a reproduction recipe;
///   * `compromised` — the *effective* corrupted set (for partial_coverage
///                     this is the realized Bernoulli draw, not the list in
///                     `config.compromised`), so scoring never re-draws;
///   * `events`      — every adversary-visible event in arrival order (the
///                     fabric's event log, see network::attach), from which
///                     scoring builds the adversary_view;
///   * `truths`      — per-message ground-truth outcomes, which scoring uses
///                     for the delivery/latency metrics and top-1 scoring
///                     (they are the evaluator's key, never shown to the
///                     inference engine).
struct sim_trace {
  /// Bump on any change to the serialized layout that alters bytes a v1
  /// writer could have produced; read_trace refuses mismatched versions
  /// (no silent misparse), and the golden-file regression test pins the
  /// committed fixture to the current value. Purely *additive* optional
  /// lines (topology/churn/fault-plan/retry sections, written only for
  /// non-default configs) extend the v1 grammar without a bump: every v1
  /// trace still parses to the same run, every pre-extension config still
  /// serializes byte-identically, and an older reader rejects extended
  /// traces loudly at the unknown keyword rather than misparsing them.
  static constexpr std::uint32_t format_version = 1;

  sim_config config;
  std::vector<node_id> compromised;  ///< effective corrupted set, ascending
  std::vector<adversary_event> events;
  /// One entry per original message, ascending by id (ids are dense
  /// 1..message_count, so entry i holds id i + 1).
  std::vector<message_truth> truths;
  /// Retry attempt id -> original message id, one entry per retransmission
  /// (empty when the retry policy is disabled). Attempt ids continue past
  /// message_count, so original ids keep their dense 1..message_count range.
  /// Scoring fuses the observations of one original's attempts.
  std::map<std::uint64_t, std::uint64_t> attempts;
};

/// True when a run routes on a materialized graph: a restricted topology,
/// or planned (kpaths) routes, which are planned on a graph even for the
/// clique. The plain clique builds no graph, so it keeps the historical
/// simple-path sampler and engine bit for bit.
[[nodiscard]] bool routes_on_graph(const net::topology_config& topology,
                                   const net::routing_config& routing);

class cell_scorer;

namespace detail {

/// The graph a run of `config` routes on: null when it routes on none
/// (routes_on_graph), else `lent` when non-null, else one built into
/// `owned`, which must outlive every use of the result.
[[nodiscard]] const net::topology* graph_for(
    const sim_config& config, const net::topology* lent,
    std::optional<net::topology>& owned);

/// The event-driven half of run_simulation: builds the fabric, runs the
/// workload to completion, and returns the run's trace plus its event and
/// wire telemetry (see sim_report). `graph` is graph_for(config, ...): the
/// graph the run routes on, borrowed read-only, or null when it routes on
/// none. Shared plumbing for run_simulation, capture_trace and the
/// campaign; not a stable public surface.
struct core_result {
  sim_trace trace;
  std::uint64_t events_executed = 0;
  std::uint64_t wire_dropped = 0;
  std::uint64_t wire_stranded = 0;
  std::uint64_t wire_crashed = 0;
};
[[nodiscard]] core_result run_core(const sim_config& config,
                                   const net::topology* graph);

/// The inference half, shared by run_simulation, replay and the campaign:
/// builds the adversary_view from the trace's event log, scores each
/// observed message with the scorer's sender_inference for the run's
/// effective compromised set, and aggregates the sim_report. The scorer
/// picks the engine from the config (the clique posterior_engine, or
/// topology_posterior_engine for a restricted graph or planned routes)
/// unless it was given a caller's posterior_fn. Unexplainable observations
/// (possible only under the timing correlator or fuzzed logs) are skipped,
/// not scored as zero. With retry attempts in the trace, observations of
/// the same original are scored as one message whose posterior is the
/// normalized product of the per-attempt posteriors (independent evidence
/// about the same sender) — the anonymity cost of retransmission. A
/// built-in engine with no fusion and no collect_posteriors scores each
/// distinct observation once through the scorer's memo of posterior
/// summaries, which every run scored through that scorer shares; every
/// other case scores every observed attempt with the scorer's engine.
/// Every report field but memo_hits/memo_misses is the same, bit for bit,
/// whatever the scorer scored before. The event and wire telemetry stay 0.
[[nodiscard]] sim_report score_run(const sim_trace& trace, cell_scorer& scorer);

/// run_simulation's second half: score_run over a run_core result, with
/// the core's event and wire telemetry copied onto the report.
[[nodiscard]] sim_report score_core(const core_result& core,
                                    cell_scorer& scorer);

}  // namespace detail

/// The scoring state the runs of one campaign cell share: one
/// sender_inference engine per effective compromised set, and one memo of
/// posterior summaries keyed by (effective compromised set,
/// observation::key_into). Every summary is a pure function of that key
/// and of the cell: the engine depends on the cell's N, path-length law,
/// topology, routing and the set, and the sequential-Bayes target sender
/// is the lowest honest node of the set. So a replica scored through a
/// shared scorer reports what it reports through a fresh one (its
/// layout-memo counters aside), while each distinct observation of the cell
/// pays its engine once.
/// Precondition: every run scored through one scorer shares those cell
/// fields (a campaign cell's replicas do). Not thread-safe: a campaign
/// scores a cell's replicas one at a time, in replica order, which keeps
/// the engines' layout-memo counters deterministic. run_simulation and
/// replay_trace score through a fresh scorer per run.
class cell_scorer {
 public:
  /// `graph` is the cell's topology (graph_for), borrowed by every engine;
  /// it must be non-null when the cell routes on a graph, unless `custom`
  /// is given. `custom`, when non-null, is a caller's posterior_fn that
  /// replaces the built-in engine (borrowed, never memoized); on the
  /// clique the built-in engine only screens gapped observations for it.
  explicit cell_scorer(const net::topology* graph,
                       const posterior_fn* custom = nullptr);
  cell_scorer(const cell_scorer&) = delete;
  cell_scorer& operator=(const cell_scorer&) = delete;

  /// Summaries in the memo: one per distinct (effective set, observation)
  /// that a memoized run looked up, the posterior evaluations it paid for.
  [[nodiscard]] std::uint64_t memo_entries() const noexcept;

 private:
  friend sim_report detail::score_run(const sim_trace& trace,
                                      cell_scorer& scorer);

  /// All that a report needs of one posterior.
  struct summary {
    double bits;
    std::size_t top;
    double top_mass;
    double target_mass;
  };
  /// nullopt for an unexplainable observation. `run` stamps the last run
  /// that looked the entry up, so each run still counts its own first
  /// lookup of an observation as a miss (posterior.obs_memo_*).
  struct memo_entry {
    std::optional<summary> value;
    std::uint64_t run = 0;
  };
  /// The engine and the memo for one effective compromised set.
  struct engine_slot {
    std::unique_ptr<sender_inference> engine;
    std::unordered_map<std::string, memo_entry> memo;
  };
  engine_slot& slot_for(const sim_config& config, std::vector<node_id> ids);

  const net::topology* const graph_;
  const posterior_fn* const custom_;
  std::map<std::vector<node_id>, engine_slot> slots_;
  std::uint64_t runs_ = 0;
};

}  // namespace anonpath::sim
