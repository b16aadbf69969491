#pragma once

/// \file api.hpp
/// Umbrella header for the anonpath core library — everything a downstream
/// user needs to score, compare, optimize, and attack rerouting-based
/// anonymous communication strategies (Guan et al., ICDCS 2002).
///
/// Layering (low to high):
///   types            node ids, system parameters, routes
///   entropy          Shannon machinery on posteriors
///   length_distribution / moments   the strategy space and its 4-scalar
///                                   sufficient statistic
///   analytic / closed_forms         exact C=1 anonymity degree (all paper
///                                   figures) and Theorems 1-3
///   observation / posterior         the threat model and general-C exact
///                                   Bayesian sender inference
///   sender_inference                the one interface simulator scoring
///                                   calls: observation -> posterior, or
///                                   false when nothing explains it
///   brute_force / cyclic            exhaustive oracles (simple and
///                                   cycle-allowing paths)
///   path_sampler / monte_carlo      sampled estimation at scale
///   multi_message                   cross-message degradation attacks
///   optimizer                       the paper's Sec. 5.4 optimal strategy
///   strategy                        presets for every surveyed protocol
///
/// The topology axis lives in src/net: net::topology is a weighted
/// rerouting graph (complete — the paper's clique and the default
/// everywhere — plus ring, random_regular, tiered, trust_weighted) with a
/// net::churn_model taking nodes down/up on seeded renewal processes.
/// Routing on a graph is the weighted random walk (the paper's
/// "complicated" path model is exactly the clique instance);
/// net::graph_oracle enumerates it exhaustively on small graphs,
/// net::topology_posterior_engine performs exact restricted-path sender
/// inference at simulation scale (transfer-matrix DP over honest-interior
/// walk segments), and net::estimate_topology_degree is the walk-model
/// Monte-Carlo H* estimator. The conformance suite pins oracle and engine
/// to each other, and the clique instance to cyclic_brute_force_analyzer.
/// Every graph is stored in flat compressed-sparse-row arrays built by one
/// counting-sort pass (million-node construction is sub-second;
/// net::edge_count and net::max_graph_edges refuse a graph too large to
/// build before building it), and src/net/route_plan.hpp adds planning on
/// top of the adjacency views: binary-heap
/// Dijkstra, Yen k-shortest loopless paths, connected components (whole
/// and masked), and net::route_planner — the source-routed kpaths model
/// (exit uniform, path ~ 1/cost among the k best), scored by
/// net::topology_posterior_engine under a uniform(1, N-1) length prior.
/// The engine's interior-support mask can prune its DP to the k-path
/// support (net::kpath_support); an all-true mask is bit-identical to the
/// unmasked engine. posterior_engine and topology_posterior_engine both
/// implement sender_inference; the simulator picks one per run in one
/// factory and memoizes its per-observation summaries.
///
/// The longitudinal axis lives in src/workload and src/attack: a
/// workload::population is a seeded, population-scale traffic model — M
/// persistent (sender -> receiver) pairs embedded in background traffic
/// drawn from uniform/Zipf popularity laws, emitted in threshold or timed
/// mix rounds, each round a pure function of (seed, index) via
/// stats::rng::stream so generation is thread-safe, order-free, and never
/// materialized in full (1e5 users x 1e4 rounds streams in well under a
/// second). workload::accumulate_cooccurrence shards the rounds over a
/// stats::thread_pool into one accumulator per worker and merges them
/// order-free — bit-identical for every thread count.
/// attack::disclosure_attack is the inference family over those rounds:
/// attack::intersection_attack (exact candidate-set intersection, plus the
/// minimum_hitting_sets oracle the statistical attacks are
/// conformance-pinned against), attack::sda_attack (background-subtracted
/// receiver-frequency estimation with z-score confidence, seedable from the
/// parallel accumulator), and attack::sequential_bayes_attack (per-round
/// Bayesian fusion whose soft-weight mode consumes per-message
/// posterior_engine / topology_posterior_engine scores — the seam between
/// the paper's per-message analysis and long-term disclosure). All report
/// entropy / identified trajectories per round.
///
/// Disclosure inference is *online*: attack::online_attack
/// (src/attack/online.hpp) ingests rounds as they arrive and exposes the
/// posterior, a stride-sampled trajectory, and the identified round at any
/// stream position — the offline post-processors (run_workload_attack, the
/// simulator's session scoring) are implemented on it, so online equals
/// offline bit for bit by construction. Its state backend is selectable:
/// `exact` keeps the dense engines above; `sketch`
/// (attack::sketch_sda_attack, for the counting attack) replaces the dense
/// per-receiver counters with count-min sketches plus a weighted bottom-k
/// candidate reservoir (src/workload/sketch.hpp), making session memory
/// independent of the receiver population (~300 KB at 1e6 receivers vs 16
/// MB dense) while the posterior stays conformance-pinned to the exact
/// engine — bit-identical when the sketches are collision-free, and
/// count-min estimates never undercount with overestimates bounded by
/// 2*total/width per key w.p. >= 1 - 2^-depth. The same split lives in the
/// accumulation layer: workload::streaming_accumulator
/// (src/workload/streaming.hpp) ingests rounds incrementally under either
/// backend, treats empty/partial streams as first-class, and merges across
/// disjoint round ranges bit-identically for every thread/shard split
/// (accumulate_cooccurrence is now a thin wrapper over it).
/// sda_attack::from_counts treats accumulated totals as untrusted input —
/// merged, replayed, or deserialized counts are validated against the
/// parse_error taxonomy (out-of-range receivers, non-ascending rows,
/// target/global mismatches) before any unsigned subtraction or division
/// can corrupt the posterior.
///
/// The discrete-event simulator lives in src/sim (include
/// "src/sim/simulator.hpp"). Its fabric only logs the adversary's
/// reports; after the run, sim::adversary_view (src/sim/adversary.hpp)
/// builds the adversary's view from that event log under one of three
/// threat models: full_coalition (the paper's Sec. 4 worst case),
/// partial_coverage (iid fractional corruption, optionally honest receiver
/// — observations with receiver_observed == false), and timing_correlator
/// (timestamp-only linking via sim::timing_correlation — gapped
/// observations); the posterior engine marginalizes over both weakened
/// observation shapes. Every run is scored from its sim_trace (config,
/// effective compromised set, event log, ground truth). sim::trace
/// (src/sim/trace.hpp) serializes that trace into a versioned, exact
/// format and replays it through any inference engine offline; replay and
/// inline runs share one scoring function, so they agree bit for bit by
/// construction. sim::session_config (src/sim/session.hpp)
/// opens the time axis inside the simulator: the workload batches into mix
/// rounds, every message carries a pseudonymous destination (the tracked
/// sender always writes to their partner), and scoring runs a longitudinal
/// attack whose sequential-Bayes mode fuses the run's own per-message
/// posteriors — disabled sessions are byte-identical to pre-session
/// behavior, and enabled ones ride trace v1 as an optional line.
///
/// The fault axis is sim::fault_plan (src/sim/fault_plan.hpp), one seeded
/// valve over every way the fabric degrades: per-link drop probability,
/// stochastic churn (net::churn_config), explicit crash/repair intervals
/// (net::outage, compiled by net::outage_schedule into merged closed-open
/// downtime), and seeded mix-failure episodes that crash random mixes on a
/// deterministic timetable. The inert default draws from no generator, so
/// fault-free runs are bit-identical to the pre-fault engine and default
/// traces/CSVs keep their historical bytes; enabled plans ride trace v1 as
/// optional lines. Recovery is sim::retry_policy: sender-side timeout and
/// re-injection over a fresh route with capped exponential backoff
/// (timeout, x backoff, <= max_timeout, at most max_retries attempts).
/// Every retransmission is a new adversary observation of the same sender
/// that scoring fuses into the per-message posterior — the policy buys
/// delivery with anonymity, the frontier bench/ext_retry_frontier maps.
///
/// On top sits the scenario-campaign engine (src/sim/campaign.hpp) — a
/// declarative grid over (N, C, strategy, routing mode, drop rate, arrival
/// rate, adversary model, topology, churn, mix failures, retry policy,
/// session population/rounds/attack, stream backend; each axis declared
/// once in the table of src/sim/campaign_axes.hpp) whose cells fan out over a
/// stats::thread_pool with deterministic per-run rng streams and aggregate
/// into per-cell summaries, bit-identical for every thread count under a
/// fixed master seed (the same contract as mc_config). A cell that throws
/// becomes an error row in the CSV instead of killing the sweep, and the
/// whole campaign is crash-resumable: src/sim/checkpoint.hpp journals
/// finished cells to an append-only "anonpath-checkpoint v1" file (scope
/// fingerprint + one bit-exact record per cell, versioned like trace v1),
/// and a resumed run replays the journal and re-renders byte-identical
/// output at any thread count. The same contract extends across machines:
/// campaign_config{shard_index, shard_count} runs one residue class of the
/// grid's cells (seeds derive from absolute run indices), each shard
/// journals under its shard identity, and sim::merge_campaign recombines
/// the journals into a result bit-identical to an unsharded run — refusing
/// scope mismatches, duplicate/missing shards, and incomplete journals.
/// Parsers for both untrusted formats (trace, checkpoint) reject
/// corruption with the structured anonpath::parse_error taxonomy
/// (src/stats/error.hpp) — never a contract_violation, never a crash; and
/// every result-bearing write path (CSV/trace/figure streams, checkpoint
/// appends, benchmark JSON) is verified, so a full disk or a closed pipe
/// is a loud nonzero exit, not a silently dropped result. The hot
/// inference loops (posterior_engine, attack::sequential_bayes_attack)
/// run allocation-free on member scratch and sit under a CI
/// perf-regression gate (bench/BENCH_baseline.json + bench/perf_diff.py).
/// The figure generators live in src/repro.
///
/// Observability is src/obs, an opt-in tap over all of the above:
/// obs::metrics_registry holds named counters, gauges, and 65-bucket
/// log-scale histograms (obs::log_histogram) in thread-sharded slabs — one
/// per stats::thread_pool worker, merged in fixed index order, so a
/// snapshot of the same logical work is bit-identical for every thread
/// count; obs::merge_snapshots recombines sharded campaigns' telemetry
/// (counters/bins sum, gauges keep the max) to equal the unsharded run's.
/// obs::span is an RAII scoped timer feeding an obs::tracer whose
/// parent/child tree carries explicit creation-order ids (never wall-clock
/// keys), so trace *structure* is deterministic and only durations are
/// real telemetry — the `_ms`/`_us`/`_ns` naming convention
/// (obs::is_timing_metric) marks which histograms determinism comparisons
/// reduce to totals (obs::stable_text). Snapshots and spans serialize as
/// versioned "anonpath-metrics v1" JSONL through obs::write_metrics_file
/// (checked writes: open or write failure is parse_error{io}); the reader
/// rejects corruption with the same parse_error taxonomy as
/// trace/checkpoint. Instrumented layers hold non-owning registry/tracer
/// pointers defaulting to nullptr — no `--metrics`/`--progress`, no
/// allocation, byte-identical outputs. obs::progress_meter is the
/// rate-limited `# progress:` stderr heartbeat with a linear ETA.

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/brute_force.hpp"
#include "src/anonymity/closed_forms.hpp"
#include "src/anonymity/cyclic.hpp"
#include "src/anonymity/entropy.hpp"
#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/moments.hpp"
#include "src/anonymity/monte_carlo.hpp"
#include "src/anonymity/multi_message.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/optimizer.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/anonymity/sender_inference.hpp"
#include "src/anonymity/strategy.hpp"
#include "src/anonymity/types.hpp"
#include "src/net/churn.hpp"
#include "src/net/graph_oracle.hpp"
#include "src/net/topology.hpp"
#include "src/net/topology_mc.hpp"
#include "src/net/topology_posterior.hpp"
