#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/anonymity/types.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::net {

/// Declarative node-availability model: while up, a node fails at rate
/// `down_rate` (exponential up-times with mean 1/down_rate); once down it
/// recovers after an exponential outage with mean `mean_downtime`. The
/// default (rate 0) is the static network every pre-topology experiment ran
/// on — and is required to reproduce those runs bit for bit, so a disabled
/// churn model never draws from any generator.
struct churn_config {
  double down_rate = 0.0;      ///< per-second failure rate while up (0 = static)
  double mean_downtime = 1.0;  ///< mean seconds a node stays down

  [[nodiscard]] bool enabled() const noexcept { return down_rate > 0.0; }
  /// Finite parameters, down_rate >= 0, and mean_downtime > 0 when enabled.
  [[nodiscard]] bool valid() const noexcept {
    return std::isfinite(down_rate) && std::isfinite(mean_downtime) &&
           down_rate >= 0.0 && (down_rate == 0.0 || mean_downtime > 0.0);
  }

  /// "static", or "churn(<rate>/<mean_downtime>)".
  [[nodiscard]] std::string label() const;

  friend bool operator==(const churn_config&, const churn_config&) = default;
};

/// Seeded on/off renewal process per node. Every node starts up and owns a
/// dedicated deterministic rng stream (stats::rng::stream(seed, node)), so
/// the realized schedule depends only on (config, seed, node) — never on
/// query order across nodes or on any other stream the simulation consumes.
///
/// Queries must be time-monotone per node (the discrete-event queue's clock
/// is globally monotone, so the network fabric satisfies this for free);
/// is_up advances the node's schedule lazily up to the queried instant.
class churn_model {
 public:
  /// Preconditions: node_count >= 1, config.valid().
  churn_model(std::uint32_t node_count, churn_config config,
              std::uint64_t seed);

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }
  [[nodiscard]] const churn_config& config() const noexcept { return config_; }

  /// Whether node v is up at time `at`. Precondition: v < node_count, and
  /// `at` is >= every earlier query for v.
  [[nodiscard]] bool is_up(node_id v, double at);

  /// Total up->down and down->up transitions realized so far (diagnostics
  /// and tests; 0 forever when disabled).
  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }

 private:
  struct node_state {
    bool up = true;
    double next_toggle = 0.0;
    bool started = false;
    stats::rng gen{0};
  };

  [[nodiscard]] double draw_duration(node_state& s) const;

  churn_config config_;
  std::uint64_t seed_;
  std::vector<node_state> nodes_;
  std::uint64_t transitions_ = 0;
};

}  // namespace anonpath::net
