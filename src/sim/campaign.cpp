#include "src/sim/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

#include "src/sim/campaign_axes.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/thread_pool.hpp"

namespace anonpath::sim {

namespace {

/// Fixed-width numeric rendering so CSV comparisons are byte-exact and
/// independent of any ostream state the caller set up.
void put_number(std::ostream& os, double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", x);
  os << buf;
}

/// mean,stderr pair; "nan,nan" when the summary never received a sample
/// (the inference columns of hop-by-hop cells).
void put_summary(std::ostream& os, const stats::running_summary& s,
                 double scale = 1.0) {
  if (s.count() == 0) {
    os << "nan,nan";
    return;
  }
  put_number(os, s.mean() * scale);
  os << ',';
  put_number(os, s.std_error() * scale);
}

/// CSV-quotes free-form text (error messages may contain commas/quotes).
void put_quoted(std::ostream& os, const std::string& text) {
  os << '"';
  for (char c : text) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

/// Folds one cell's replica runs into its aggregate, in replica order
/// (bit-identical for any thread count). Errored replicas contribute
/// nothing to the summaries; the first one stamps the cell's error.
campaign_cell reduce_cell(const scenario& s, std::uint32_t replicas,
                          const sim_report* reports,
                          const std::string* errors) {
  campaign_cell agg;
  agg.scene = s;
  agg.replicas = replicas;
  for (std::uint32_t rep = 0; rep < replicas; ++rep) {
    if (!errors[rep].empty()) {
      if (agg.error.empty()) agg.error = errors[rep];
      continue;
    }
    const sim_report& r = reports[rep];
    agg.submitted += r.submitted;
    agg.delivered += r.delivered;
    agg.delivered_fraction.add(static_cast<double>(r.delivered) /
                               static_cast<double>(r.submitted));
    if (r.end_to_end_latency.count() > 0)
      agg.latency_seconds.add(r.end_to_end_latency.mean());
    if (r.realized_hops.count() > 0) agg.hops.add(r.realized_hops.mean());
    if (s.mode == routing_mode::source_routed &&
        !std::isnan(r.empirical_entropy_bits)) {
      agg.entropy_bits.add(r.empirical_entropy_bits);
      agg.identified_fraction.add(r.identified_fraction);
      agg.top1_accuracy.add(r.top1_accuracy);
    }
    if (r.session) {
      agg.attack_entropy_bits.add(r.session->entropy_bits);
      agg.attack_identified.add(r.session->identified ? 1.0 : 0.0);
      // Only replicas that END identified contribute: a transient
      // threshold crossing a later inconsistent round revoked would
      // otherwise make this column disagree with attack_identified.
      if (r.session->identified && r.session->identified_round > 0)
        agg.rounds_to_identify.add(
            static_cast<double>(r.session->identified_round));
    }
    if (s.retry.enabled())
      agg.retransmit_rate.add(static_cast<double>(r.retransmissions) /
                              static_cast<double>(r.submitted));
  }
  return agg;
}

/// scenario_config before the seed and the seed-dependent session target.
sim_config cell_config(const scenario& s, const campaign_grid& grid) {
  sim_config cfg;
  cfg.sys = {s.node_count, s.compromised_count};
  cfg.compromised = spread_compromised(s.node_count, s.compromised_count);
  cfg.lengths = s.lengths;
  cfg.mode = s.mode;
  cfg.forward_prob = grid.forward_prob;
  cfg.message_count = grid.message_count;
  cfg.arrival_rate = s.arrival_rate;
  cfg.latency = grid.latency;
  cfg.faults.drop_probability = s.drop_probability;
  cfg.faults.churn = s.churn;
  cfg.faults.outages = grid.fault_outages;
  cfg.faults.mix_failures = s.mix_failure;
  cfg.retry = s.retry;
  cfg.adversary = s.adversary;
  cfg.topology = s.topology;
  cfg.routing = s.routing;
  cfg.identified_threshold = grid.identified_threshold;
  if (s.rounds > 0) {
    cfg.session.rounds = s.rounds;
    cfg.session.receiver_count = s.population;
    cfg.session.receiver_law = grid.session_receiver_law;
    cfg.session.attack = s.attack;
    cfg.session.stream = s.stream;
    cfg.session.partner = canonical_partner(s.population);
  }
  return cfg;
}

}  // namespace

std::uint64_t campaign_grid::cell_count() const noexcept {
  std::uint64_t cells = 1;
  for_each_axis(
      [&](const auto& axis) { cells *= (this->*axis.values).size(); });
  return cells;
}

scenario grid_cell(const campaign_grid& grid, std::uint64_t index) {
  ANONPATH_EXPECTS(index < grid.cell_count());
  scenario s;
  std::uint64_t stride = grid.cell_count();
  for_each_axis([&](const auto& axis) {
    const auto& values = grid.*axis.values;
    stride /= values.size();
    s.*axis.coordinate = values[(index / stride) % values.size()];
  });
  return s;
}

const char* infeasible_reason(const campaign_grid& grid, const scenario& s) {
  // A simulated run needs an honest sender, so C < N here.
  if (s.node_count < 2 || s.compromised_count >= s.node_count)
    return "--c must be below --n, and --n at least 2";
  // Session coordinates a run config cannot express: population and rounds
  // are both off or both on, and attacks and sketches need a session.
  if ((s.population == 0) != (s.rounds == 0))
    return "session mode wants both --population and --rounds (or neither)";
  if (s.attack != attack::attack_kind::none && s.rounds == 0)
    return "--attack needs session mode (--population and --rounds)";
  if (s.stream != workload::stream_backend::exact &&
      s.attack != attack::attack_kind::sda)
    return "--stream sketch requires --attack sda";
  // Every per-run rule is the rulebook's. The crash plan is left out: it
  // is not swept, and a node outside this cell's N fails the cell into its
  // error column instead (campaign_grid::fault_outages).
  sim_config cfg = cell_config(s, grid);
  cfg.faults.outages.clear();
  return invalid_reason(cfg);
}

void harvest_report(obs::metrics_registry& reg, unsigned worker,
                    const sim_report& r) {
  reg.add_counter(worker, "sim.events_executed", r.events_executed);
  reg.add_counter(worker, "sim.messages_submitted", r.submitted);
  reg.add_counter(worker, "sim.messages_delivered", r.delivered);
  reg.add_counter(worker, "sim.messages_dropped", r.wire_dropped);
  reg.add_counter(worker, "sim.messages_stranded",
                  r.wire_stranded + r.wire_crashed);
  reg.add_counter(worker, "sim.retransmissions", r.retransmissions);
  reg.add_counter(worker, "attack.memo_hits", r.memo_hits);
  reg.add_counter(worker, "attack.memo_misses", r.memo_misses);
  reg.add_counter(worker, "posterior.obs_memo_hits", r.obs_memo_hits);
  reg.add_counter(worker, "posterior.obs_memo_misses", r.obs_memo_misses);
}

std::vector<scenario> expand_grid(const campaign_grid& grid) {
  std::vector<scenario> out;
  const std::uint64_t cells = grid.cell_count();
  for (std::uint64_t i = 0; i < cells; ++i) {
    scenario s = grid_cell(grid, i);
    if (infeasible_reason(grid, s) == nullptr) out.push_back(std::move(s));
  }
  return out;
}

sim_config scenario_config(const scenario& s, const campaign_grid& grid,
                           std::uint64_t seed) {
  sim_config cfg = cell_config(s, grid);
  // The effective flags, not the configured list: a partial_coverage
  // adversary supersedes cfg.compromised with a seeded draw, and the
  // target must be honest under what the run actually corrupts.
  if (cfg.session.enabled())
    cfg.session.target_sender = lowest_honest_node(effective_compromised(
        cfg.adversary, s.node_count, cfg.compromised, seed));
  cfg.seed = seed;
  return cfg;
}

namespace {

/// Every journal write/flush funnels through here: a stream gone bad
/// (ENOSPC, EIO, a yanked volume) must surface as a structured failure,
/// never as a "successful" campaign with silently missing cells.
void check_journal(const std::ofstream& journal, const std::string& path) {
  if (!journal)
    throw parse_error(parse_error_kind::io, "checkpoint",
                      "write to '" + path +
                          "' failed (disk full or I/O error)");
}

}  // namespace

campaign_result run_campaign(const campaign_grid& grid,
                             const campaign_config& config) {
  ANONPATH_EXPECTS(config.replicas >= 1);
  ANONPATH_EXPECTS(!config.resume || !config.checkpoint_path.empty());
  ANONPATH_EXPECTS(config.shard_count >= 1 &&
                   config.shard_index < config.shard_count);
  ANONPATH_EXPECTS(config.shard_count == 1 || !config.checkpoint_path.empty());
  const std::vector<scenario> scenarios = expand_grid(grid);
  ANONPATH_EXPECTS(!scenarios.empty());
  const std::uint64_t cell_total = scenarios.size();

  // This shard's slice of the grid: local cell l holds absolute index
  // shard_index + l * shard_count. The unsharded run is the trivial
  // 1-shard split, where local and absolute coincide.
  std::vector<std::uint64_t> local_to_abs;
  for (std::uint64_t a = config.shard_index; a < cell_total;
       a += config.shard_count)
    local_to_abs.push_back(a);
  const std::uint64_t local_total = local_to_abs.size();

  campaign_result result;
  result.requested_cells = grid.cell_count();
  result.skipped_cells = result.requested_cells - cell_total;
  result.runs = local_total * config.replicas;

  // Checkpoint plumbing: on resume, adopt the journal's completed-cell
  // prefix; either way rewrite the file (header + adopted prefix) so any
  // kill-point tail is truncated before new records append. Every write
  // is checked — see check_journal.
  std::ofstream journal;
  if (!config.checkpoint_path.empty()) {
    const std::uint64_t scope = campaign_scope(grid, config);
    if (config.resume) {
      std::ifstream in(config.checkpoint_path);
      if (in)
        result.cells = read_checkpoint(in, scope, local_total,
                                       config.shard_index, config.shard_count);
    }
    journal.open(config.checkpoint_path,
                 std::ios::out | std::ios::trunc);
    if (!journal)
      throw parse_error(parse_error_kind::io, "checkpoint",
                        "cannot open '" + config.checkpoint_path +
                            "' for writing");
    write_checkpoint_header(journal, scope, config.shard_index,
                            config.shard_count);
    for (std::uint64_t l = 0; l < result.cells.size(); ++l)
      append_checkpoint_cell(journal, local_to_abs[l], result.cells[l]);
    journal.flush();
    check_journal(journal, config.checkpoint_path);
  }
  // Restored records carry default scenes; rebind them from the grid.
  for (std::uint64_t l = 0; l < result.cells.size(); ++l)
    result.cells[l].scene = scenarios[local_to_abs[l]];

  const std::uint64_t first_cell = result.cells.size();
  const std::uint64_t pending_cells = local_total - first_cell;
  const std::uint64_t pending_runs = pending_cells * config.replicas;
  result.cells.reserve(local_total);

  // Fan out: every (cell, replica) run is self-contained — its seed comes
  // from a deterministic per-ABSOLUTE-run rng stream (so resumed or sharded
  // campaigns rerun nothing differently: abs_run depends only on the cell's
  // place in the full grid) and its report lands in its own slot. A task
  // runs only the event half of its run (run_core) and parks the result.
  // Each cell scores its parked runs through one cell_scorer, strictly in
  // replica order: the thread whose core makes the cell's next replica ready
  // scores it and every ready replica after it, while no other thread holds
  // the cell's cursor. No thread waits; only cores that finish out of order
  // are parked. A replica that throws becomes an error string instead of a
  // dead process. Completed cells flush to the journal in cell order, under
  // the lock, so the reduction stays bit-identical for any thread count
  // while a kill loses only in-flight cells. A journal write failure throws
  // out of the worker; parallel_for rethrows it on the calling thread and
  // the campaign exits nonzero.
  std::vector<sim_report> reports(pending_runs);
  std::vector<std::string> errors(pending_runs);
  // One run's event half, parked until its cell's cursor reaches it.
  struct parked_run {
    std::optional<detail::core_result> core;
    double us = 0.0;     // wall time of the core, then of the scoring too
    bool ready = false;  // the core ran (or threw); set under the lock
  };
  std::vector<parked_run> parked(pending_runs);
  // Per cell: one graph for a cell that routes on one (a restricted
  // topology or planned routes), which the cell's first replica to start
  // builds and every replica and engine borrows read-only; the scorer; and
  // the scoring cursor. A build that throws leaves the flag unset, so each
  // replica retries and fails into its own error slot, as it would
  // building alone. The cell's last scored replica frees graph and scorer.
  struct cell_state {
    std::once_flag built;
    std::unique_ptr<const net::topology> graph;
    std::unique_ptr<cell_scorer> scorer;
    std::uint32_t scored = 0;  // replicas scored, in replica order
    bool scoring = false;      // a thread holds the cursor
    double us = 0.0;
  };
  std::vector<cell_state> cells(pending_cells);
  std::uint64_t flushed = first_cell;
  std::mutex mu;
  if (config.metrics != nullptr) {
    // One slab per parallel_for worker.
    config.metrics->ensure_shards(stats::resolve_thread_count(config.threads));
  }
  const auto elapsed_us = [](std::chrono::steady_clock::time_point since) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - since)
        .count();
  };
  // Scores one parked run through its cell's scorer and records its
  // telemetry. Called only by the thread holding the cell's cursor. Slab
  // writes are per-worker and lock-free. Every counter harvested here is a
  // deterministic function of the run's seed and of the replicas scored
  // before it in its cell, so the merged snapshot is identical for any
  // thread count or shard split; the *_us histograms are wall-clock and
  // excluded from stable comparisons by the timing-suffix convention.
  const auto score = [&](std::uint64_t run, cell_state& cell,
                         unsigned worker) {
    parked_run& p = parked[run];
    const auto started = std::chrono::steady_clock::now();
    if (errors[run].empty()) {
      try {
        if (!cell.scorer)
          cell.scorer = std::make_unique<cell_scorer>(cell.graph.get());
        reports[run] = detail::score_core(*p.core, *cell.scorer);
      } catch (const std::exception& e) {
        errors[run] = *e.what() ? e.what() : "unknown error";
      } catch (...) {
        errors[run] = "unknown error";
      }
    }
    p.core.reset();
    p.us += elapsed_us(started);
    if (config.metrics != nullptr) {
      obs::metrics_registry& m = *config.metrics;
      m.add_counter(worker, "campaign.runs_completed", 1);
      if (errors[run].empty())
        harvest_report(m, worker, reports[run]);
      else
        m.add_counter(worker, "campaign.runs_errored", 1);
      m.observe(worker, "campaign.run_us", static_cast<std::uint64_t>(p.us));
    }
  };
  // Progress counts LOCAL cells (restored prefix included, shown as
  // already complete), so the caller sizes the meter from the grid alone.
  if (config.progress != nullptr) config.progress->advance(first_cell);
  stats::parallel_for(
      config.threads, pending_runs, [&](std::uint64_t run, unsigned worker) {
        const std::uint64_t pending_cell = run / config.replicas;
        const std::uint64_t abs_cell = local_to_abs[first_cell + pending_cell];
        const std::uint64_t abs_run =
            abs_cell * config.replicas + run % config.replicas;
        const scenario& s = scenarios[abs_cell];
        const std::uint64_t seed =
            stats::rng::stream(config.master_seed, abs_run).next_u64();
        const auto run_started = std::chrono::steady_clock::now();
        cell_state& cell = cells[pending_cell];
        parked_run& p = parked[run];
        try {
          const sim_config cfg = scenario_config(s, grid, seed);
          if (routes_on_graph(s.topology, s.routing))
            std::call_once(cell.built, [&] {
              cell.graph = std::make_unique<const net::topology>(
                  net::topology::make(s.node_count, s.topology));
            });
          p.core = detail::run_core(cfg, cell.graph.get());
        } catch (const std::exception& e) {
          errors[run] = *e.what() ? e.what() : "unknown error";
        } catch (...) {
          errors[run] = "unknown error";
        }
        p.us = elapsed_us(run_started);
        const std::uint64_t base = pending_cell * config.replicas;
        std::unique_lock<std::mutex> lock(mu);
        p.ready = true;
        while (!cell.scoring && cell.scored < config.replicas &&
               parked[base + cell.scored].ready) {
          const std::uint64_t next = base + cell.scored;
          cell.scoring = true;
          lock.unlock();
          score(next, cell, worker);
          lock.lock();
          cell.scoring = false;
          cell.us += parked[next].us;
          ++cell.scored;
        }
        if (cell.scored < config.replicas) return;
        if (config.metrics != nullptr)
          config.metrics->add_counter(
              worker, "posterior.cell_memo_entries",
              cell.scorer ? cell.scorer->memo_entries() : 0);
        cell.scorer.reset();
        cell.graph.reset();
        while (flushed < local_total &&
               cells[flushed - first_cell].scored == config.replicas) {
          const std::uint64_t done = (flushed - first_cell) * config.replicas;
          result.cells.push_back(reduce_cell(scenarios[local_to_abs[flushed]],
                                             config.replicas, &reports[done],
                                             &errors[done]));
          if (journal.is_open()) {
            append_checkpoint_cell(journal, local_to_abs[flushed],
                                   result.cells.back());
            journal.flush();
            check_journal(journal, config.checkpoint_path);
          }
          if (config.metrics != nullptr) {
            config.metrics->add_counter(worker, "campaign.cells_completed", 1);
            config.metrics->observe(
                worker, "campaign.cell_us",
                static_cast<std::uint64_t>(cells[flushed - first_cell].us));
          }
          if (config.progress != nullptr)
            config.progress->advance(flushed + 1);
          ++flushed;
        }
      });
  return result;
}

void write_csv(const campaign_result& result, std::ostream& os) {
  // Session columns only when the campaign actually swept sessions: a
  // deterministic function of the result, so pre-session grids keep their
  // historical byte-identical rendering (pinned by the topology golden).
  // The fault and error columns follow the same rule.
  bool sessions = false, faults = false, routed = false, errored = false;
  bool streamed = false;
  for (const campaign_cell& cell : result.cells) {
    if (cell.scene.population > 0) sessions = true;
    if (cell.scene.stream != workload::stream_backend::exact) streamed = true;
    if (cell.scene.mix_failure.enabled() || cell.scene.retry.enabled())
      faults = true;
    if (cell.scene.routing.planned()) routed = true;
    if (!cell.error.empty()) errored = true;
  }
  os << "n,c,dist,mode,drop,rate,replicas,messages,adversary,topology,churn,"
        "delivered_fraction,delivered_stderr,"
        "latency_ms,latency_ms_stderr,hops,hops_stderr,"
        "entropy_bits,entropy_stderr,identified_fraction,identified_stderr,"
        "top1_accuracy,top1_stderr";
  if (routed) os << ",routing";
  if (faults)
    os << ",mix_failures,retry,retransmit_rate,retransmit_stderr";
  if (sessions) {
    os << ",population,rounds,attack";
    if (streamed) os << ",stream";
    os << ",attack_entropy_bits,"
          "attack_entropy_stderr,attack_identified,attack_identified_stderr,"
          "rounds_to_identify,rounds_to_identify_stderr";
  }
  if (errored) os << ",error";
  os << '\n';
  for (const campaign_cell& cell : result.cells) {
    const scenario& s = cell.scene;
    os << s.node_count << ',' << s.compromised_count << ",\""
       << s.lengths.label() << "\"," << routing_mode_label(s.mode) << ',';
    put_number(os, s.drop_probability);
    os << ',';
    put_number(os, s.arrival_rate);
    os << ',' << cell.replicas << ',' << cell.submitted << ','
       << s.adversary.label() << ',' << s.topology.label() << ','
       << s.churn.label() << ',';
    put_summary(os, cell.delivered_fraction);
    os << ',';
    put_summary(os, cell.latency_seconds, 1000.0);
    os << ',';
    put_summary(os, cell.hops);
    os << ',';
    put_summary(os, cell.entropy_bits);
    os << ',';
    put_summary(os, cell.identified_fraction);
    os << ',';
    put_summary(os, cell.top1_accuracy);
    if (routed) os << ',' << s.routing.label();
    if (faults) {
      os << ','
         << (s.mix_failure.enabled() ? s.mix_failure.label() : "none") << ','
         << (s.retry.enabled() ? s.retry.label() : "none") << ',';
      put_summary(os, cell.retransmit_rate);
    }
    if (sessions) {
      os << ',' << s.population << ',' << s.rounds << ','
         << attack::attack_kind_label(s.attack);
      if (streamed) os << ',' << workload::stream_backend_label(s.stream);
      os << ',';
      put_summary(os, cell.attack_entropy_bits);
      os << ',';
      put_summary(os, cell.attack_identified);
      os << ',';
      put_summary(os, cell.rounds_to_identify);
    }
    if (errored) {
      os << ',';
      put_quoted(os, cell.error);
    }
    os << '\n';
  }
}

}  // namespace anonpath::sim
