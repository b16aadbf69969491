#include "src/sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/anonymity/sender_inference.hpp"
#include "src/attack/noise.hpp"
#include "src/attack/online.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/sim/workload.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/logspace.hpp"

namespace anonpath::sim {

namespace {

/// Normalized pointwise product of independent per-attempt sender
/// posteriors — the evidence fusion behind "every retransmission is one
/// more observation". Computed in log space for numerical safety. A factor
/// that would annihilate the support entirely (possible only for mislinked
/// timing-correlator chains) is skipped, matching the screening policy for
/// unexplainable single observations: contradictory evidence cannot be
/// normalized, so it carries no weight. Precondition: at least one factor,
/// all the same size, each with some positive mass.
std::vector<double> fuse_attempt_posteriors(
    const std::vector<std::vector<double>>& factors) {
  const std::size_t n = factors.front().size();
  std::vector<double> log_post(n, 0.0);
  std::vector<double> candidate(n);
  for (const std::vector<double>& f : factors) {
    bool has_support = false;
    for (std::size_t i = 0; i < n; ++i) {
      candidate[i] =
          f[i] > 0.0 ? log_post[i] + std::log(f[i]) : stats::log_zero();
      has_support = has_support || candidate[i] > stats::log_zero();
    }
    if (has_support) log_post.swap(candidate);
  }
  const double norm = stats::log_sum_exp(log_post);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(log_post[i] - norm);
  return out;
}

/// A caller-supplied posterior_fn as a sender_inference. It runs once per
/// call and is never memoized. On the clique the built-in engine screens
/// it first, so a gapped observation the model cannot explain is skipped
/// before the caller sees it.
class custom_inference final : public sender_inference {
 public:
  custom_inference(const posterior_fn& fn,
                   std::unique_ptr<posterior_engine> screen)
      : fn_(fn), screen_(std::move(screen)) {}

  bool try_sender_posterior(const observation& obs,
                            std::vector<double>& out) const override {
    if (screen_ && obs.gapped && !screen_->explainable(obs)) return false;
    out = fn_(obs);
    return !out.empty();
  }

 private:
  const posterior_fn& fn_;
  std::unique_ptr<posterior_engine> screen_;
};

/// The one engine-kind decision of scoring. The clique keeps the
/// simple-path posterior_engine. A restricted graph routes walks, scored
/// by topology_posterior_engine under the run's length law. Planned
/// (kpaths) routes are loopless graph paths, scored by the same engine
/// under a diffuse uniform(1, N-1) prior that covers every realizable
/// planned length; its mask stays full, because under the uniform exit
/// law net::kpath_support spans every node. `graph` is the topology the
/// run routed on, borrowed by the engine. A caller-supplied `custom`
/// function replaces the built-in engine: it needs no graph, and on the
/// clique the built-in engine only screens gapped observations.
std::unique_ptr<sender_inference> make_sender_inference(
    const sim_config& config, std::vector<node_id> ids,
    const net::topology* graph, const posterior_fn* custom) {
  const std::uint32_t n = config.sys.node_count;
  const system_params sys{n, static_cast<std::uint32_t>(ids.size())};
  if (!routes_on_graph(config.topology, config.routing)) {
    auto exact =
        std::make_unique<posterior_engine>(sys, std::move(ids), config.lengths);
    if (custom == nullptr) return exact;
    return std::make_unique<custom_inference>(*custom, std::move(exact));
  }
  if (custom != nullptr)
    return std::make_unique<custom_inference>(*custom, nullptr);
  ANONPATH_EXPECTS(graph != nullptr);
  return std::make_unique<net::topology_posterior_engine>(
      sys, std::move(ids),
      config.routing.planned() ? path_length_distribution::uniform(1, n - 1)
                               : config.lengths,
      *graph);
}

}  // namespace

const char* system_infeasible_reason(const system_params& sys,
                                     const path_length_distribution& lengths) {
  if (!sys.valid()) return "--c must be at most --n, and --n at least 2";
  if (lengths.max_length() > sys.node_count - 1)
    return "--dist lengths must fit a simple path (at most --n minus 1)";
  return nullptr;
}

const char* event_load_reason(std::uint32_t node_count,
                              std::uint32_t message_count,
                              double arrival_rate,
                              const net::churn_config& churn,
                              const retry_policy& retry) {
  if (churn.enabled()) {
    const double cycle = 1.0 / churn.down_rate + churn.mean_downtime;
    const double transitions = 2.0 * node_count *
                               (message_count / arrival_rate) / cycle;
    if (!(transitions <= max_churn_transitions))
      return "--churn is too large for the traffic span (at most 1e9 "
             "expected node transitions over --messages / --rate)";
  }
  if (std::uint64_t{message_count} * (std::uint64_t{retry.max_retries} + 1) >
      max_attempts)
    return "--retry is too large for --messages (at most 2000000 attempts, "
           "--messages x (retries + 1))";
  return nullptr;
}

const char* scoring_load_reason(std::uint32_t node_count,
                                std::uint32_t message_count,
                                const retry_policy& retry,
                                const path_length_distribution& lengths,
                                const net::topology_config& topology,
                                const net::routing_config& routing) {
  const double attempts = static_cast<double>(message_count) *
                          (static_cast<double>(retry.max_retries) + 1.0);
  const double longest =
      routing.planned() ? node_count - 1.0 : lengths.max_length();
  const double arcs = 2.0 * net::edge_count(node_count, topology);
  if (!(attempts * (longest + 1.0) * arcs <= max_scoring_work))
    return "--messages is too large to score on this graph (at most 1.5e10 "
           "= --messages x (retries + 1) x (longest route + 1) x 2 x "
           "edges; the longest route is --n minus 1 under --routing "
           "kpaths)";
  return nullptr;
}

const char* invalid_reason(const sim_config& c) {
  const std::uint32_t n = c.sys.node_count;
  if (const char* why = system_infeasible_reason(c.sys, c.lengths)) return why;
  if (n > max_sim_nodes) return "--n is too large (at most 1000000 nodes)";
  if (c.message_count > max_messages)
    return "--messages is too large (at most 1000000 messages)";
  if (c.faults.mix_failures.count > max_mix_failures)
    return "--mix-failures is too large (at most 1000000 episodes)";
  if (c.compromised.size() != c.sys.compromised_count ||
      std::any_of(c.compromised.begin(), c.compromised.end(),
                  [n](node_id id) { return id >= n; }))
    return "the compromised list must hold --c node ids below --n";
  if (!(c.forward_prob >= 0.0 && c.forward_prob <= 1.0))
    return "forward probability must be in [0, 1]";
  if (c.message_count == 0) return "--messages must be > 0";
  if (!(std::isfinite(c.arrival_rate) && c.arrival_rate > 0.0))
    return "--rate must be finite and > 0";
  if (!c.latency.valid() || !std::isfinite(c.latency.base) ||
      !std::isfinite(c.latency.jitter) || !std::isfinite(c.latency.processing))
    return "latency parameters must be finite and >= 0";
  if (!c.faults.valid_for(n))
    return "fault plan out of range (--drop in [0, 1), --churn, "
           "--mix-failures, --crash nodes below --n)";
  if (!c.retry.valid()) return "--retry parameters out of range";
  if (const char* why = event_load_reason(n, c.message_count, c.arrival_rate,
                                          c.faults.churn, c.retry))
    return why;
  if (!c.adversary.valid()) return "--adversary coverage must be in [0, 1]";
  if (!(c.identified_threshold >= 0.0 && c.identified_threshold <= 1.0))
    return "--threshold must be in [0, 1]";
  // A restricted graph routes weighted walks, and planned (kpaths) routing
  // picks whole source-routed paths: neither has a gapped
  // (timing-correlator) likelihood, and planning has no hop-by-hop form.
  const bool timing = c.adversary.kind == adversary_kind::timing_correlator;
  if (const char* why = c.topology.invalid_reason(n)) return why;
  // The topology engine scores source-routed runs on the graph they route
  // on.
  const bool on_graph = routes_on_graph(c.topology, c.routing);
  if (on_graph && net::edge_count(n, c.topology) > net::max_graph_edges)
    return "the graph --topology wires on --n nodes is too large (at most "
           "40000000 edges)";
  if (on_graph && c.mode == routing_mode::source_routed)
    if (const char* why = scoring_load_reason(n, c.message_count, c.retry,
                                              c.lengths, c.topology,
                                              c.routing))
      return why;
  if (c.topology.kind != net::topology_kind::complete && timing)
    return "--adversary timing is not supported on a restricted --topology";
  if (!c.routing.valid()) return "--routing kpaths:<k> needs k in [1, 64]";
  if (c.routing.planned() && c.mode != routing_mode::source_routed)
    return "--routing kpaths requires onion (source-routed) mode";
  if (c.routing.planned() && timing)
    return "--adversary timing is not supported with --routing kpaths";
  // Session destinations are metadata on source-routed traffic; hop-by-hop
  // runs have no per-message inference to fuse with.
  if (c.session.receiver_count > max_population)
    return "--population is too large (at most 10000000 receivers)";
  if (!c.session.valid_for(n, c.message_count))
    return "session parameters out of range (--population >= 2, --rounds "
           "<= --messages, --stream sketch only with --attack sda)";
  if (c.session.enabled() && c.mode != routing_mode::source_routed)
    return "session mode requires onion (source-routed) routing";
  // The disclosure engines identify only at a threshold strictly inside
  // (0, 1), as the attack command requires.
  if (c.session.enabled() && c.session.attack != attack::attack_kind::none &&
      !(c.identified_threshold > 0.0 && c.identified_threshold < 1.0))
    return "--threshold must be in (0, 1) with a session --attack";
  return nullptr;
}

bool routes_on_graph(const net::topology_config& topology,
                     const net::routing_config& routing) {
  return topology.kind != net::topology_kind::complete || routing.planned();
}

namespace detail {

namespace {

/// Asserts the rulebook, naming the broken rule.
void expect_valid(const sim_config& config) {
  if (const char* why = invalid_reason(config))
    ::anonpath::detail::contract_fail("precondition", why, __FILE__,
                                      __LINE__);
}

}  // namespace

const net::topology* graph_for(const sim_config& config,
                               const net::topology* lent,
                               std::optional<net::topology>& owned) {
  if (!routes_on_graph(config.topology, config.routing)) return nullptr;
  if (lent != nullptr) return lent;
  // A config the rulebook refuses fails in its words, before a graph is
  // built for it.
  expect_valid(config);
  return &owned.emplace(
      net::topology::make(config.sys.node_count, config.topology));
}

core_result run_core(const sim_config& config, const net::topology* graph) {
  expect_valid(config);

  const auto n = config.sys.node_count;
  // The plain clique routes on no graph, so it stays byte-for-byte the
  // historical clique path. On a graph, the fabric asserts every hop
  // follows an edge.
  ANONPATH_EXPECTS(routes_on_graph(config.topology, config.routing)
                       ? graph != nullptr && graph->node_count() == n
                       : graph == nullptr);
  std::optional<net::route_planner> planner;
  if (config.routing.planned()) planner.emplace(*graph, config.routing);

  core_result result;
  sim_trace& trace = result.trace;
  trace.config = config;
  std::vector<bool> flags = effective_compromised(
      config.adversary, n, config.compromised, config.seed);
  for (node_id i = 0; i < n; ++i)
    if (flags[i]) trace.compromised.push_back(i);

  stats::rng master(config.seed);
  // Auto-horizon for seeded mix-failure episodes: the run's expected
  // traffic span, so incidents land where traffic actually flows.
  const double fault_horizon =
      static_cast<double>(config.message_count) / config.arrival_rate;
  network net(n, config.latency, master.next_u64(), config.faults, graph,
              fault_horizon);
  // This draw once seeded the onion key registry. Its value is unused, but
  // the draw stays so every later stream, and every output, keeps its bits.
  (void)master.next_u64();
  if (config.mode == routing_mode::hop_by_hop)
    net.use_crowds(config.forward_prob, master);
  net.attach(std::move(flags), trace.events);

  // Schedule the workload.
  stats::rng traffic = master.split();
  stats::rng routing = master.split();
  // Retransmissions sample their fresh routes from a dedicated stream split
  // off *after* every historical stream, so enabling retries never perturbs
  // the routes originals take (the frontier sweep compares like with like)
  // and a disabled policy leaves every historical stream byte-identical.
  stats::rng retry_routing = master.split();
  // Planned-route draws (exit choice + k-path pick) come from order-free
  // streams keyed off the seed rather than further master.split() calls, so
  // walk-mode runs never see these streams exist and stay byte-identical;
  // retransmissions again get their own stream so enabling retries leaves
  // original planned routes untouched.
  constexpr std::uint64_t kpaths_stream_tag = 0x6b706174u;  // "kpat"
  stats::rng plan_rng = stats::rng::stream(config.seed, kpaths_stream_tag);
  stats::rng retry_plan_rng =
      stats::rng::stream(config.seed, kpaths_stream_tag + 1);

  // Sender-side recovery state, indexed by original id: every message id
  // that ever hit the wire for it (the original plus its retransmissions)
  // and the timeout its pending timer was armed with. attempt_parent[k] is
  // the original of attempt id message_count + 1 + k: attempt ids continue
  // past message_count so original ids stay dense.
  const bool retrying = config.retry.enabled();
  std::vector<std::vector<std::uint64_t>> attempts_of(
      retrying ? config.message_count + 1 : 0);
  std::vector<double> armed_timeout(retrying ? config.message_count + 1 : 0);
  std::vector<std::uint64_t> attempt_parent;
  std::uint64_t next_attempt_id = config.message_count + 1;

  // One transmission attempt: sample a route for `id` and put it on the
  // wire. Shared by originals (drawing from the historical routing stream)
  // and retransmissions (drawing from retry_routing).
  route r;
  const auto launch = [&](node_id sender, std::uint64_t id, stats::rng& gen,
                          stats::rng& plan_gen) {
    if (config.mode == routing_mode::source_routed) {
      if (planner) {
        sample_planned_route_into(*planner, sender, plan_gen, r);
      } else {
        const path_length l = config.lengths.sample(gen);
        if (graph != nullptr) {
          sample_topology_route_into(*graph, sender, l, gen, r);
        } else {
          r = sample_simple_route(n, sender, l, gen);
        }
      }
      net.set_route(id, r.hops);
      net.send(sender, r.hops.empty() ? receiver_node : r.hops.front(), id);
    } else if (graph != nullptr) {
      // Hop-by-hop on a graph: first jondo is a weighted neighbor.
      net.send(sender, graph->sample_neighbor(sender, gen), id);
    } else {
      // Hop-by-hop: always at least one jondo, chosen uniformly.
      auto draw = static_cast<node_id>(gen.next_below(n - 1));
      if (draw >= sender) ++draw;
      net.send(sender, draw, id);
    }
  };

  // Timeout timer of one original: when it fires and no attempt has been
  // delivered, inject a retransmission over a fresh route and re-arm with
  // the backed-off timeout. The retransmission is a full first-class
  // message on the wire — the adversary observes it like any other, which
  // is exactly the anonymity cost this layer exists to measure.
  const auto arm_timer = [&](node_id sender, std::uint64_t original,
                             std::uint32_t retries_done, double timeout) {
    armed_timeout[original] = timeout;
    net.queue().schedule_in(timeout, event_kind::retry_timer, original,
                            sender, retries_done);
  };
  const auto on_timer = [&](node_id sender, std::uint64_t original,
                            std::uint32_t retries_done) {
    for (const std::uint64_t id : attempts_of[original])
      if (net.outcomes()[id].delivered) return;  // recovered — stand down
    if (retries_done >= config.retry.max_retries) return;  // budget spent
    const std::uint64_t id = next_attempt_id++;
    attempt_parent.push_back(original);
    attempts_of[original].push_back(id);
    net.originate(sender, net.queue().now(), id);
    launch(sender, id, retry_routing, retry_plan_rng);
    arm_timer(sender, original, retries_done + 1,
              std::min(armed_timeout[original] * config.retry.backoff,
                       config.retry.max_timeout));
  };

  for (const arrival& a :
       poisson_workload(n, config.arrival_rate, config.message_count, traffic))
    net.queue().schedule_at(a.at, event_kind::workload_arrival, a.msg_id,
                            a.sender);

  const bool drained = net.run([&](const sim_event& e) {
    if (e.kind == event_kind::retry_timer) {
      on_timer(e.a, e.msg, e.b);
      return;
    }
    net.originate(e.a, e.at, e.msg);
    launch(e.a, e.msg, routing, plan_rng);
    if (retrying) {
      attempts_of[e.msg].push_back(e.msg);
      arm_timer(e.a, e.msg, 0, config.retry.timeout);
    }
  });
  ANONPATH_ENSURES(drained);

  result.events_executed = net.queue().executed();
  result.wire_dropped = net.dropped_count();
  result.wire_stranded = net.stranded_count();
  result.wire_crashed = net.crashed_count();
  // Fold attempts into per-original outcomes: delivered if any attempt was,
  // timed from the original submission to the *earliest* delivering attempt
  // (end-to-end latency includes the waits the retry policy imposed), hops
  // from that attempt. Originals come first in id order, so the fold always
  // finds its base outcome.
  const std::vector<message_outcome>& outcomes = net.outcomes();
  trace.truths.reserve(config.message_count);
  for (std::uint64_t id = 1; id <= config.message_count; ++id)
    trace.truths.push_back(message_truth{id, outcomes[id]});
  for (std::uint64_t k = 0; k < attempt_parent.size(); ++k) {
    const std::uint64_t id = config.message_count + 1 + k;
    const message_outcome& t = outcomes[id];
    trace.attempts.emplace_hint(trace.attempts.end(), id, attempt_parent[k]);
    if (!t.delivered) continue;
    message_outcome& out = trace.truths[attempt_parent[k] - 1].outcome;
    if (!out.delivered || t.delivered_at < out.delivered_at) {
      out.delivered = true;
      out.delivered_at = t.delivered_at;
      out.hops = t.hops;
    }
  }
  return result;
}

sim_report score_run(const sim_trace& trace, cell_scorer& scorer) {
  const sim_config& config = trace.config;
  const std::span<const message_truth> truths = trace.truths;
  obs::span score_span(config.tracer, "sim.score");
  const std::uint64_t run = ++scorer.runs_;
  sim_report report;
  report.submitted = config.message_count;
  const bool fused = !trace.attempts.empty();
  report.retransmissions = trace.attempts.size();
  // Per-message Pr(sender == target) for the sequential-Bayes fusion: the
  // rerouting layer's evidence about who originated each delivery, fed to
  // the longitudinal attack as soft round membership. Indexed by id - 1
  // (ids are dense 1..message_count); 0 = unscored, which downstream reads
  // as "the adversary saw nothing about this delivery".
  const bool want_target_mass =
      config.session.enabled() &&
      config.session.attack == attack::attack_kind::sequential_bayes;
  std::vector<double> target_mass(want_target_mass ? config.message_count : 0,
                                  0.0);
  for (const auto& [id, outcome] : truths) {
    if (!outcome.delivered) continue;
    ++report.delivered;
    report.end_to_end_latency.add(outcome.delivered_at - outcome.sent_at);
    report.realized_hops.add(static_cast<double>(outcome.hops));
    if (outcome.hops >= report.hop_histogram.size())
      report.hop_histogram.resize(outcome.hops + 1, 0);
    ++report.hop_histogram[outcome.hops];
  }

  if (config.mode == routing_mode::source_routed) {
    std::vector<bool> flags(config.sys.node_count, false);
    for (const node_id id : trace.compromised) {
      ANONPATH_EXPECTS(id < flags.size());
      flags[id] = true;
    }
    const adversary_view view(config.adversary, flags, config.latency,
                              trace.events);
    // The engine and memo for the run's *effective* compromised set: the
    // configured list for the full coalition (and the timing correlator,
    // which taps the same nodes), the drawn set for partial coverage.
    cell_scorer::engine_slot& slot = scorer.slot_for(
        config, config.adversary.kind == adversary_kind::partial_coverage
                    ? trace.compromised
                    : config.compromised);
    const sender_inference& inference = *slot.engine;
    // The clique engine's layout-memo lookups that this run makes.
    const auto* exact = dynamic_cast<const posterior_engine*>(&inference);
    const std::uint64_t layout_hits = exact ? exact->memo_hits() : 0;
    const std::uint64_t layout_misses = exact ? exact->memo_misses() : 0;

    stats::running_summary entropy_acc;
    std::uint64_t identified = 0;
    std::uint64_t top1_hits = 0;
    std::uint64_t scored = 0;
    // One posterior buffer for the whole loop: no per-message copy of the
    // N-double posterior.
    std::vector<double> post;
    const auto summarize = [&](const std::vector<double>& p) {
      const entropy_summary e = summarize_entropy(p);
      return cell_scorer::summary{
          e.bits, e.argmax, p[e.argmax],
          want_target_mass ? p[config.session.target_sender] : 0.0};
    };
    const auto score_summary = [&](std::uint64_t original,
                                   const cell_scorer::summary& sum) {
      entropy_acc.add(sum.bits);
      if (want_target_mass && original >= 1 &&
          original <= config.message_count)
        target_mass[original - 1] = sum.target_mass;
      if (sum.top_mass > config.identified_threshold) ++identified;
      const auto tit = std::lower_bound(
          truths.begin(), truths.end(), original,
          [](const message_truth& t, std::uint64_t id) { return t.msg < id; });
      if (tit != truths.end() && tit->msg == original &&
          static_cast<node_id>(sum.top) == tit->outcome.origin)
        ++top1_hits;
      ++scored;
    };

    if (scorer.custom_ == nullptr && !fused && !config.collect_posteriors) {
      // Built-in posteriors are a pure function of the observation and
      // the slot's effective set, and the runs of a cell repeat
      // observations (study_grid's 48 cells hold 23,865 distinct ones in
      // 192,000), so each distinct one pays the engine once per cell.
      // The memo keeps only the summary — nullopt for an unexplainable
      // observation — never the N-length posterior: its memory is
      // O(distinct observations). An entry is added only once computed,
      // so a throwing engine leaves no half-made entry behind.
      std::string key;
      for (const std::uint64_t id : view.observed_messages()) {
        const observation& obs = view.assemble(id);
        obs.key_into(key);
        auto it = slot.memo.find(key);
        if (it == slot.memo.end()) {
          std::optional<cell_scorer::summary> value;
          if (inference.try_sender_posterior(obs, post))
            value = summarize(post);
          it = slot.memo.emplace(key, cell_scorer::memo_entry{value, 0})
                   .first;
        }
        if (it->second.run == run) {
          ++report.obs_memo_hits;
        } else {
          it->second.run = run;
          ++report.obs_memo_misses;
        }
        if (it->second.value) score_summary(id, *it->second.value);
      }
    } else {
      // Group the observed attempts by their original and score each
      // original once, on the normalized product of its per-attempt
      // posteriors: more attempts observed => sharper product — the
      // measured anonymity cost of the retry policy. Without retries every
      // id is its own group, and observed_messages() is ascending, so the
      // scoring order is the observation order.
      const auto original_of = [&](std::uint64_t id) {
        const auto pit = trace.attempts.find(id);
        return pit == trace.attempts.end() ? id : pit->second;
      };
      std::map<std::uint64_t, std::vector<std::vector<double>>> groups;
      for (const std::uint64_t id : view.observed_messages())
        if (inference.try_sender_posterior(view.assemble(id), post))
          groups[original_of(id)].push_back(post);
      for (const auto& [original, factors] : groups) {
        const std::vector<double>& p = factors.size() == 1
                                           ? factors.front()
                                           : fuse_attempt_posteriors(factors);
        if (config.collect_posteriors) report.posteriors.push_back(p);
        score_summary(original, summarize(p));
      }
    }
    if (scored == 0) {
      // Nothing observed => reporting 0.0 here would read as "all senders
      // identified" and poison campaign aggregates, so the inference
      // metrics are absent, not zero.
      report.empirical_entropy_bits = std::numeric_limits<double>::quiet_NaN();
      report.empirical_entropy_stderr =
          std::numeric_limits<double>::quiet_NaN();
      report.identified_fraction = std::numeric_limits<double>::quiet_NaN();
      report.top1_accuracy = std::numeric_limits<double>::quiet_NaN();
    } else {
      report.empirical_entropy_bits = entropy_acc.mean();
      report.empirical_entropy_stderr = entropy_acc.std_error();
      report.identified_fraction =
          static_cast<double>(identified) / static_cast<double>(scored);
      report.top1_accuracy =
          static_cast<double>(top1_hits) / static_cast<double>(scored);
    }
    if (exact != nullptr) {
      report.memo_hits = exact->memo_hits() - layout_hits;
      report.memo_misses = exact->memo_misses() - layout_misses;
    }
  } else {
    report.empirical_entropy_bits = std::numeric_limits<double>::quiet_NaN();
    report.empirical_entropy_stderr = std::numeric_limits<double>::quiet_NaN();
  }

  if (config.session.enabled() &&
      config.session.attack != attack::attack_kind::none) {
    // Reconstruct the destination plan (a pure function of config, seed and
    // origins — identical on the inline and replay paths) and batch the
    // delivered destinations into per-round observations.
    // One truth per message, ascending: entry i holds id i + 1.
    ANONPATH_EXPECTS(truths.size() == config.message_count);
    std::vector<node_id> origins(config.message_count);
    for (std::uint64_t i = 0; i < truths.size(); ++i) {
      ANONPATH_EXPECTS(truths[i].msg == i + 1);
      origins[i] = truths[i].outcome.origin;
    }
    const std::vector<session_assignment> plan =
        assign_session_destinations(config.session, config.seed, origins);

    struct round_data {
      bool target_present = false;
      std::vector<node_id> receivers;
      std::vector<double> weights;
    };
    std::vector<round_data> rounds(config.session.rounds);
    std::uint64_t target_messages = 0;
    for (std::uint64_t id = 1; id <= config.message_count; ++id) {
      const session_assignment& a = plan[id - 1];
      round_data& rd = rounds[a.round];
      // Submission membership is public in a batching mix, delivered or not.
      if (origins[id - 1] == config.session.target_sender) {
        rd.target_present = true;
        ++target_messages;
      }
      if (!truths[id - 1].outcome.delivered) continue;
      rd.receivers.push_back(a.destination);
      // Deliveries the adversary never observed (or could not explain)
      // carry weight 0: the residual mass in the Bayes update covers them.
      if (want_target_mass) rd.weights.push_back(target_mass[id - 1]);
    }

    // Two ways a target-present round can lack partner evidence: the
    // target's messages were lost before delivery (every retry attempt
    // dropped), or they were delivered but the collector missed/mislinked
    // them — possible exactly when the adversary is not the full coalition
    // (partial coverage loses reports, the timing correlator mislinks).
    // Either way the Bayes engine needs a noise floor so one such round
    // cannot irreversibly annihilate the true partner — see
    // attack::membership_noise_floor for the loss model.
    const bool lossy_observation =
        config.adversary.kind != adversary_kind::full_coalition;
    attack::online_config ocfg;
    ocfg.kind = config.session.attack;
    ocfg.backend = config.session.stream;
    ocfg.bayes.membership_noise = attack::membership_noise_floor(
        config.faults.drop_probability, config.retry.max_retries,
        lossy_observation);
    ocfg.identified_threshold = config.identified_threshold;
    // The session score is the online session run to the end of the round
    // stream (stride 1) — the same implementation the offline runners use,
    // so inline scoring, replay, and any-round snapshots cannot drift.
    attack::online_attack online(config.session.receiver_count, ocfg);
    session_report sr;
    sr.rounds = config.session.rounds;
    sr.target_messages = target_messages;
    {
      obs::span ingest_span(config.tracer, "attack.ingest");
      attack::round_observation obs;
      for (std::uint32_t r = 0; r < rounds.size(); ++r) {
        obs.target_present = rounds[r].target_present;
        obs.receivers = std::move(rounds[r].receivers);
        obs.target_weight = std::move(rounds[r].weights);
        online.ingest(obs);
      }
    }
    sr.trajectory = online.trajectory();
    sr.identified_round = online.identified_round().value_or(0);
    const attack::trajectory_point& last = sr.trajectory.back();
    sr.entropy_bits = last.entropy_bits;
    sr.top_mass = last.top_mass;
    sr.top_receiver = last.top_receiver;
    sr.identified = last.identified;
    sr.correct = last.top_receiver == config.session.partner;
    report.session = std::move(sr);
  }
  return report;
}

sim_report score_core(const core_result& core, cell_scorer& scorer) {
  sim_report report = score_run(core.trace, scorer);
  report.events_executed = core.events_executed;
  report.wire_dropped = core.wire_dropped;
  report.wire_stranded = core.wire_stranded;
  report.wire_crashed = core.wire_crashed;
  return report;
}

}  // namespace detail

cell_scorer::cell_scorer(const net::topology* graph, const posterior_fn* custom)
    : graph_(graph), custom_(custom) {}

std::uint64_t cell_scorer::memo_entries() const noexcept {
  std::uint64_t entries = 0;
  for (const auto& [ids, slot] : slots_) entries += slot.memo.size();
  return entries;
}

cell_scorer::engine_slot& cell_scorer::slot_for(const sim_config& config,
                                                std::vector<node_id> ids) {
  auto it = slots_.find(ids);
  if (it == slots_.end()) {
    std::unique_ptr<sender_inference> engine =
        make_sender_inference(config, ids, graph_, custom_);
    it = slots_.emplace(std::move(ids), engine_slot{std::move(engine), {}})
             .first;
  }
  return it->second;
}

sim_report run_simulation(const sim_config& config,
                          const net::topology* graph) {
  obs::span run_span(config.tracer, "sim.run");
  std::optional<net::topology> owned;
  const detail::core_result core = [&] {
    obs::span core_span(config.tracer, "sim.run_core");
    graph = detail::graph_for(config, graph, owned);
    return detail::run_core(config, graph);
  }();
  cell_scorer scorer(graph);
  return detail::score_core(core, scorer);
}

}  // namespace anonpath::sim
