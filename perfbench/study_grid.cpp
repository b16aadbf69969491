// study_grid: a scenario-grid study, the library equivalent of
//   anonpath campaign --n 60,120 --c 1,4 --dist F:3 --dist U:1,10
//     --topology complete,regular:4 --population 0,500 --rounds 0,20
//     --attack none,sda --messages 250 --replicas 16 --threads 4
// plus the model H* of its 16 session-less configurations
// (estimate_anonymity_degree on the clique, net::estimate_topology_degree
// on regular:4, each on 4 threads). Unlike sim_long it runs 768 short
// simulations, each paying per-run set-up with cold memos, fans them out
// over the thread pool, and scores restricted graphs; the model H* adds the
// paper's Monte-Carlo engine. Simulated-vs-model agreement is the check.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perfbench/harness.hpp"
#include "src/anonymity/monte_carlo.hpp"
#include "src/net/topology_mc.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/rng.hpp"

namespace perfbench {
namespace {

using namespace anonpath;

constexpr unsigned threads = 4;
constexpr std::uint32_t replicas = 16;
constexpr std::uint32_t messages = 250;
constexpr std::uint64_t model_samples = 10000;

struct model_estimate {
  double degree = 0.0;
  double std_error = 0.0;
};

class study_grid final : public bench_workload {
 public:
  explicit study_grid(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    grid_ = sim::campaign_grid{};
    grid_.node_counts = {60, 120};
    grid_.compromised_counts = {1, 4};
    grid_.lengths = {path_length_distribution::fixed(3),
                     path_length_distribution::uniform(1, 10)};
    net::topology_config regular;
    regular.kind = net::topology_kind::random_regular;
    regular.degree = 4;
    regular.graph_seed = stats::rng::stream(seed_, 1).next_u64();
    grid_.topologies = {net::topology_config{}, regular};
    grid_.populations = {0, 500};
    grid_.session_rounds = {0, 20};
    grid_.attacks = {attack::attack_kind::none, attack::attack_kind::sda};
    grid_.message_count = messages;
    scenarios_ = sim::expand_grid(grid_);
    if (scenarios_.size() != 48)
      throw std::runtime_error("study_grid: expected 48 feasible cells");
    config_ = sim::campaign_config{};
    config_.replicas = replicas;
    config_.master_seed = seed_;
    config_.threads = threads;

    // Warm-up: one replica of every cell at a tenth of the message count,
    // through the same thread pool.
    sim::campaign_grid warm = grid_;
    warm.message_count = messages / 10;
    sim::campaign_config warm_cfg = config_;
    warm_cfg.replicas = 1;
    const sim::campaign_result r = sim::run_campaign(warm, warm_cfg);
    if (r.cells.empty()) throw std::runtime_error("study_grid warm-up failed");
  }

  void solve(obs::tracer* tracer) override {
    obs::metrics_registry registry;
    if (tracer != nullptr) config_.metrics = &registry;
    {
      const obs::span s(tracer, "sim.campaign");
      result_ = sim::run_campaign(grid_, config_);
    }
    config_.metrics = nullptr;
    if (tracer != nullptr) counters_ = registry.snapshot().counters;

    // Model H* of every session-less cell, in grid order.
    models_.clear();
    mc_samples_ = mc_distinct_ = 0;
    std::uint64_t stream = 100;
    for (const sim::scenario& s : scenarios_) {
      if (s.rounds != 0) continue;
      const system_params sys{s.node_count, s.compromised_count};
      const std::vector<node_id> compromised =
          spread_compromised(s.node_count, s.compromised_count);
      const std::uint64_t mc_seed =
          stats::rng::stream(seed_, stream++).next_u64();
      if (s.topology.kind == net::topology_kind::complete) {
        const obs::span span(tracer, "anonymity.mc");
        mc_config cfg;
        cfg.threads = threads;
        const mc_estimate e = estimate_anonymity_degree(
            sys, compromised, s.lengths, model_samples, mc_seed, cfg);
        mc_samples_ += e.samples;
        mc_distinct_ += e.distinct_observations;
        models_.push_back({e.degree, e.std_error});
      } else {
        const obs::span span(tracer, "net.walk_mc");
        const net::topology_mc_estimate e = net::estimate_topology_degree(
            sys, compromised, s.lengths, s.topology, model_samples, mc_seed,
            threads);
        models_.push_back({e.degree, e.std_error});
      }
    }
  }

  void check(checks& c) override {
    c.expect(result_.cells.size() == scenarios_.size() &&
                 result_.runs == scenarios_.size() * replicas,
             "study_grid: every feasible cell ran every replica");
    std::size_t model = 0;
    for (const sim::campaign_cell& cell : result_.cells) {
      c.expect(cell.error.empty(), "study_grid: cell without error");
      if (cell.scene.rounds != 0) continue;
      if (model >= models_.size()) break;
      const model_estimate& m = models_[model++];
      // The simulated standard error comes from 16 replicas (a t statistic
      // with 15 degrees of freedom), so the tolerance is 6 rather than 4
      // standard errors: P(|t15| > 6) * 16 cells keeps a false failure
      // below 1 in 2500 seeds.
      const double se =
          std::hypot(cell.entropy_bits.std_error(), m.std_error);
      char what[200];
      std::snprintf(what, sizeof what,
                    "study_grid: N=%u C=%u %s %s simulated H* %.4f within 6 "
                    "combined standard errors (%.4f) of model %.4f",
                    cell.scene.node_count, cell.scene.compromised_count,
                    cell.scene.lengths.label().c_str(),
                    cell.scene.topology.label().c_str(),
                    cell.entropy_bits.mean(), se, m.degree);
      c.expect(std::abs(cell.entropy_bits.mean() - m.degree) <= 6.0 * se,
               what);
    }
    c.expect(model == 16 && models_.size() == 16,
             "study_grid: 16 session-less cells have a model H*");
    std::ostringstream csv;
    sim::write_csv(result_, csv);
    if (first_csv_.empty()) first_csv_ = csv.str();
    c.expect(csv.str() == first_csv_,
             "study_grid: repeated solves give identical campaign CSV");
  }

  [[nodiscard]] double work_units() const override {
    return static_cast<double>(scenarios_.size()) * replicas * messages;
  }
  [[nodiscard]] const char* work_unit_name() const override {
    return "simulated messages";
  }

  void layer_metrics(const obs::tracer& tracer, metric_map& out) override {
    const double mc_s = span_total_s(tracer, "anonymity.mc");
    const auto counter = [&](const char* name) {
      const auto it = counters_.find(name);
      return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double hits = counter("attack.memo_hits");
    const double lookups = hits + counter("attack.memo_misses");
    out["sim.campaign_s"] = {span_total_s(tracer, "sim.campaign"), "s"};
    out["sim.events"] = {counter("sim.events_executed"), "count"};
    out["anonymity.memo_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0,
                                       "ratio"};
    out["anonymity.mc_s"] = {mc_s, "s"};
    out["anonymity.mc_samples_per_s"] = {
        static_cast<double>(mc_samples_) / mc_s, "1/s"};
    out["anonymity.mc_distinct_ratio"] = {
        static_cast<double>(mc_distinct_) / static_cast<double>(mc_samples_),
        "ratio"};
    out["net.walk_mc_s"] = {span_total_s(tracer, "net.walk_mc"), "s"};
  }

  /// Two serial passes over the campaign's 768 runs with the campaign's
  /// own per-run seeds. The first runs run_simulation, as the campaign
  /// does, to time single runs (which the thread pool hides) and to check
  /// that every cell's mean H* matches the parallel campaign bit for bit.
  /// The second splits each run into event core (capture_trace) and
  /// scoring (replay_trace), by graph kind, and checks that the split
  /// reproduces run_simulation. Parallel efficiency compares the first
  /// pass with 4-thread campaigns timed right before and after it, so that
  /// host speed drifting between the solves and the pass cancels out.
  void extra_trace(obs::tracer& tracer, metric_map& out,
                   checks& c) override {
    const auto time_campaign = [&] {
      const clock::time_point t0 = clock::now();
      const sim::campaign_result r = sim::run_campaign(grid_, config_);
      c.expect(r.runs == result_.runs, "study_grid: campaign rerun completes");
      return seconds_since(t0);
    };
    const double campaign_before_s = time_campaign();
    std::vector<double> entropy_by_run;
    const clock::time_point start = clock::now();
    {
      const obs::span root(&tracer, "serial_runs");
      for (std::size_t cell = 0; cell < scenarios_.size(); ++cell) {
        stats::running_summary entropy;
        for (std::uint32_t rep = 0; rep < replicas; ++rep) {
          const obs::span run(&tracer, "sim.run");
          const sim::sim_report r =
              sim::run_simulation(run_config(cell, rep));
          entropy_by_run.push_back(r.empirical_entropy_bits);
          if (!std::isnan(r.empirical_entropy_bits))
            entropy.add(r.empirical_entropy_bits);
        }
        c.expect(entropy.mean() == result_.cells[cell].entropy_bits.mean(),
                 "study_grid: serial runs reproduce the parallel campaign's "
                 "cell H*");
      }
    }
    const double serial_s = seconds_since(start);
    const double campaign_s = 0.5 * (campaign_before_s + time_campaign());
    {
      const obs::span root(&tracer, "serial_split");
      bool replay_matches = true;
      for (std::size_t cell = 0; cell < scenarios_.size(); ++cell) {
        const bool clique =
            scenarios_[cell].topology.kind == net::topology_kind::complete;
        for (std::uint32_t rep = 0; rep < replicas; ++rep) {
          const sim::sim_config cfg = run_config(cell, rep);
          sim::sim_trace trace = [&] {
            const obs::span core(&tracer,
                                 clique ? "sim.clique.core" : "net.walk.core");
            return sim::capture_trace(cfg);
          }();
          const obs::span score(&tracer,
                                clique ? "sim.clique.score" : "net.walk.score");
          const double h = sim::replay_trace(trace).empirical_entropy_bits;
          const double expected = entropy_by_run[cell * replicas + rep];
          replay_matches = replay_matches &&
                           (h == expected || (std::isnan(h) && std::isnan(expected)));
        }
      }
      c.expect(replay_matches,
               "study_grid: capture + replay is bit-equal to run_simulation "
               "on every run");
    }
    const double core_s = span_total_s(tracer, "sim.clique.core") +
                          span_total_s(tracer, "net.walk.core");
    const double score_s = span_total_s(tracer, "sim.clique.score") +
                           span_total_s(tracer, "net.walk.score");
    const std::vector<double> run_ms = span_durations_ms(tracer, "sim.run");
    double run_sum_s = 0.0;
    for (double ms : run_ms) run_sum_s += ms / 1000.0;
    out["sim.serial_s"] = {serial_s, "s"};
    out["sim.core_s"] = {core_s, "s"};
    out["sim.score_s"] = {score_s, "s"};
    out["sim.events_per_s"] = {out.at("sim.events").value / core_s, "1/s"};
    out["sim.run_ms_p50"] = {quantile(run_ms, 0.5), "ms"};
    out["sim.run_ms_p90"] = {quantile(run_ms, 0.9), "ms"};
    out["sim.runs"] = {static_cast<double>(run_ms.size()), "count"};
    out["sim.clique.core_s"] = {span_total_s(tracer, "sim.clique.core"), "s"};
    out["sim.clique.score_s"] = {span_total_s(tracer, "sim.clique.score"),
                                 "s"};
    out["net.walk.core_s"] = {span_total_s(tracer, "net.walk.core"), "s"};
    out["net.walk.score_s"] = {span_total_s(tracer, "net.walk.score"), "s"};
    out["stats.parallel_efficiency"] = {run_sum_s / (threads * campaign_s),
                                        "ratio"};
  }

 private:
  /// The sim_config run_campaign gives replica `rep` of cell `cell`.
  [[nodiscard]] sim::sim_config run_config(std::size_t cell,
                                           std::uint32_t rep) const {
    const std::uint64_t abs_run = cell * replicas + rep;
    return sim::scenario_config(
        scenarios_[cell], grid_,
        stats::rng::stream(config_.master_seed, abs_run).next_u64());
  }

  std::uint64_t seed_;
  sim::campaign_grid grid_;
  sim::campaign_config config_;
  std::vector<sim::scenario> scenarios_;
  sim::campaign_result result_;
  std::vector<model_estimate> models_;
  std::uint64_t mc_samples_ = 0;
  std::uint64_t mc_distinct_ = 0;
  std::map<std::string, std::uint64_t> counters_;
  std::string first_csv_;
};

}  // namespace

std::unique_ptr<bench_workload> make_study_grid(std::uint64_t seed) {
  return std::make_unique<study_grid>(seed);
}

}  // namespace perfbench
