// sim_long: one long steady-state simulation on the paper's clique, the
// library equivalent of
//   anonpath simulate --n 100 --c 4 --dist U:2,14 --messages 50000
// (onion routing, full coalition of C = 4 spread nodes), run serially. The
// event core and exact-posterior scoring do almost all of the work; no
// net, workload or attack code runs.

#include <cmath>
#include <stdexcept>
#include <optional>

#include "perfbench/harness.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/rng.hpp"

namespace perfbench {
namespace {

using namespace anonpath;

constexpr std::uint32_t node_count = 100;
constexpr std::uint32_t compromised_count = 4;
constexpr std::uint32_t message_count = 50000;
constexpr std::uint32_t warmup_messages = 5000;

// Model H*(S) for N = 100, C = 4 (spread placement), U(2, 14) on the
// clique, from estimate_anonymity_degree with 1.6e7 samples (seed 7, 16
// shards): the value the simulated mean entropy must straddle.
constexpr double reference_degree_bits = 6.19726;
constexpr double reference_std_error = 0.00032;

sim::sim_config make_config(std::uint64_t seed, std::uint32_t messages) {
  sim::sim_config cfg;
  cfg.sys = {node_count, compromised_count};
  cfg.compromised = spread_compromised(node_count, compromised_count);
  cfg.lengths = path_length_distribution::uniform(2, 14);
  cfg.mode = routing_mode::source_routed;
  cfg.message_count = messages;
  cfg.seed = seed;
  return cfg;
}

class sim_long final : public bench_workload {
 public:
  explicit sim_long(std::uint64_t seed)
      : sim_seed_(stats::rng::stream(seed, 0).next_u64()) {}

  void setup() override {
    config_ = make_config(sim_seed_, message_count);
    // Warm-up: a short run touches every code path the timed run uses.
    const sim::sim_report warm =
        sim::run_simulation(make_config(sim_seed_, warmup_messages));
    if (warm.submitted != warmup_messages)
      throw std::runtime_error("sim_long warm-up did not run");
  }

  void solve(obs::tracer* tracer) override {
    if (tracer == nullptr) {
      last_ = sim::run_simulation(config_);
      last_traced_ = false;
      return;
    }
    // The public split of run_simulation: the event core, then scoring.
    sim::sim_trace trace = [&] {
      const obs::span s(tracer, "sim.core");
      return sim::capture_trace(config_);
    }();
    const obs::span s(tracer, "sim.score");
    last_ = sim::replay_trace(trace);
    last_traced_ = true;
  }

  void check(checks& c) override {
    c.expect(last_.submitted == message_count && last_.delivered == last_.submitted,
             "sim_long: every submitted message is delivered");
    const double se = std::hypot(last_.empirical_entropy_stderr,
                                 reference_std_error);
    c.expect(std::abs(last_.empirical_entropy_bits - reference_degree_bits) <=
                 4.0 * se,
             "sim_long: simulated H* within 4 standard errors of the model");
    if (!last_traced_) untraced_ = last_;
    if (!traced_) {
      if (last_traced_) {
        traced_ = last_;
      } else {
        // Untraced runs still check the capture + replay path once.
        traced_ = sim::replay_trace(sim::capture_trace(config_));
      }
    }
    if (untraced_) {
      c.expect(untraced_->empirical_entropy_bits ==
                       traced_->empirical_entropy_bits &&
                   untraced_->delivered == traced_->delivered &&
                   untraced_->identified_fraction ==
                       traced_->identified_fraction,
               "sim_long: capture + replay is bit-equal to run_simulation");
      c.expect(last_.empirical_entropy_bits ==
                   untraced_->empirical_entropy_bits,
               "sim_long: repeated solves give identical results");
    }
  }

  [[nodiscard]] double work_units() const override { return message_count; }
  [[nodiscard]] const char* work_unit_name() const override {
    return "messages";
  }

  void layer_metrics(const obs::tracer& tracer, metric_map& out) override {
    const double core_s = span_total_s(tracer, "sim.core");
    // Event counts come from run_simulation (replay does not re-run the
    // queue); the harness runs an untraced solve before every traced one.
    const auto events = static_cast<double>(untraced_->events_executed);
    const auto hits = static_cast<double>(last_.memo_hits);
    const auto lookups =
        static_cast<double>(last_.memo_hits + last_.memo_misses);
    out["sim.core_s"] = {core_s, "s"};
    out["sim.score_s"] = {span_total_s(tracer, "sim.score"), "s"};
    out["sim.events"] = {events, "count"};
    out["sim.events_per_s"] = {events / core_s, "1/s"};
    out["anonymity.memo_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0,
                                       "ratio"};
  }

 private:
  std::uint64_t sim_seed_;
  sim::sim_config config_;
  sim::sim_report last_;
  bool last_traced_ = false;
  std::optional<sim::sim_report> untraced_;
  std::optional<sim::sim_report> traced_;
};

}  // namespace

std::unique_ptr<bench_workload> make_sim_long(std::uint64_t seed) {
  return std::make_unique<sim_long>(seed);
}

}  // namespace perfbench
