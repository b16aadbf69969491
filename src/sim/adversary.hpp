#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/anonymity/observation.hpp"
#include "src/anonymity/types.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/latency.hpp"

namespace anonpath::sim {

/// The threat-model families the simulator can instantiate. The paper's
/// Sec. 4 worst-case observability model is one point in this space:
///   * full_coalition — every configured compromised node reports, the
///     receiver is compromised, and the adversary holds the correlation
///     handle (paper Sec. 4).
///   * partial_coverage — each relay is independently corrupted with
///     probability `coverage_fraction` and the receiver may be honest
///     (Ando–Lysyanskaya–Upfal's fractional-corruption setting); reports
///     still correlate by message, but the terminal of the path may be
///     unobserved.
///   * timing_correlator — agents at the configured compromised nodes (and
///     the receiver) observe only link send/receive timestamps and
///     endpoints; captures are linked into per-message chains by latency
///     correlation (sim::timing_correlation, Zheng's low-latency model),
///     never by a correlation handle. Its observations are `gapped`.
enum class adversary_kind : std::uint8_t {
  full_coalition,
  partial_coverage,
  timing_correlator,
};

/// Stable short label ("full_coalition", ...) for CSV and CLI surfaces.
[[nodiscard]] const char* adversary_kind_label(adversary_kind kind) noexcept;

/// Declarative description of the adversary a run faces.
struct adversary_config {
  adversary_kind kind = adversary_kind::full_coalition;
  /// partial_coverage only: per-relay independent corruption probability.
  double coverage_fraction = 1.0;
  /// partial_coverage only: false models an honest receiver (no terminal
  /// report). full_coalition and timing_correlator always compromise R.
  bool receiver_compromised = true;

  [[nodiscard]] bool valid() const noexcept {
    return coverage_fraction >= 0.0 && coverage_fraction <= 1.0;
  }

  /// Compact human/CSV label, e.g. "full_coalition",
  /// "partial(f=0.25)", "partial(f=0.25;honest_r)", "timing_correlator".
  [[nodiscard]] std::string label() const;

  friend bool operator==(const adversary_config&,
                         const adversary_config&) = default;
};

/// One adversary-visible event, in the order the collection apparatus saw
/// it. The fabric logs them (network::attach), sim::trace persists them,
/// and an adversary_view built from the log is the adversary's view of the
/// run.
struct adversary_event {
  enum class kind : std::uint8_t { origin, relay, receipt };
  kind type = kind::relay;
  std::uint64_t msg = 0;
  sim_time at = 0.0;       ///< capture time (0 for origin events)
  node_id reporter = 0;    ///< origin: sender; relay: reporter; receipt: unused
  node_id predecessor = 0; ///< relay/receipt: immediate predecessor
  node_id successor = 0;   ///< relay: immediate successor (may be receiver_node)

  friend bool operator==(const adversary_event&,
                         const adversary_event&) = default;
};

/// The adversary's view of a finished run, built once from its event log.
/// Agents at compromised nodes report (time, predecessor, successor) for
/// every message they relay, the receiver reports each delivery's
/// predecessor, and a compromised sender is observed originating. How those
/// reports fuse into `observation` objects, and which exist at all, is the
/// threat model:
///   * full_coalition and partial_coverage fuse reports per message id (the
///     correlation assumption) and sort each message's captures by capture
///     time, so scoring never sees ground-truth order. A message is observed
///     once R reported it. The one difference: under partial coverage with
///     an honest receiver R never reports, a message is observed as soon as
///     anything about it was captured, and its observation carries
///     receiver_observed == false, so the posterior engine marginalizes
///     over the unknown tail of the path.
///   * timing_correlator has no correlation handle, and origination events
///     cannot be tied to deliveries at all. Captures are greedily linked
///     backwards from each delivery, in delivery time order: capture c'
///     precedes capture c when the wire endpoints chain (c'.successor ==
///     c.reporter, c.predecessor == c'.reporter) and
///     sim::timing_correlation(c'.at, c.at, lo, hi) is positive for the
///     per-step delay window [processing + base, processing + base +
///     jitter]; among candidates the highest score (earliest capture on
///     ties) wins, and each capture links at most once. Each chain is a
///     `gapped` observation: reports the correlator failed to link are
///     absent, which the posterior engine marginalizes over.
class adversary_view {
 public:
  /// `compromised` is the run's effective flag vector (indexed by node id,
  /// see effective_compromised); `link` is the network the adversary taps,
  /// from which the timing correlator derives its linking window.
  /// Preconditions (each a contract_violation, and each a trace read_trace
  /// refuses): config.valid(), `compromised` non-empty, link.valid(), and
  /// every origin and relay event's reporter flagged compromised.
  adversary_view(const adversary_config& config,
                 const std::vector<bool>& compromised,
                 const latency_params& link,
                 std::span<const adversary_event> events);

  /// All message ids with a scorable observation, ascending.
  [[nodiscard]] std::vector<std::uint64_t> observed_messages() const;

  /// The observation of `msg`. Throws std::out_of_range for a message
  /// outside observed_messages().
  [[nodiscard]] const observation& assemble(std::uint64_t msg) const;

 private:
  /// Indexed by message id; ids without an observation stay disengaged.
  std::vector<std::optional<observation>> observed_;
};

/// The compromised flag set an adversary config induces for an N-node run:
/// the explicitly configured set for full_coalition and timing_correlator;
/// an iid Bernoulli(coverage_fraction) draw on a dedicated deterministic
/// rng stream of `seed` for partial_coverage (independent of every other
/// stream the simulator consumes, so enabling the model never perturbs
/// traffic or routing). Preconditions: config.valid(), node_count >= 1,
/// configured ids < node_count.
[[nodiscard]] std::vector<bool> effective_compromised(
    const adversary_config& config, std::uint32_t node_count,
    const std::vector<node_id>& configured, std::uint64_t seed);

}  // namespace anonpath::sim
