#pragma once

#include <iosfwd>

#include "src/sim/adversary.hpp"
#include "src/sim/simulator.hpp"

namespace anonpath::sim {

/// Runs the discrete-event half of `run_simulation(config)` and returns its
/// trace (sim_trace, src/sim/simulator.hpp): the adversary's event stream
/// plus ground truth. No inference happens here — that is replay's job.
/// `graph` is run_simulation's borrowed topology (null: build it when the
/// run routes on one).
[[nodiscard]] sim_trace capture_trace(const sim_config& config,
                                      const net::topology* graph = nullptr);

/// Re-scores a captured run with the run's built-in engine, through the
/// same scoring as run_simulation (detail::score_run over the trace), so
/// replay_trace(capture_trace(cfg)) == run_simulation(cfg) bit for bit by
/// construction. `graph`, when non-null, is the run's topology, borrowed
/// for scoring instead of rebuilt (see run_simulation).
[[nodiscard]] sim_report replay_trace(const sim_trace& trace,
                                      const net::topology* graph = nullptr);

/// Same, but scores each observed attempt with a caller-supplied inference
/// engine instead of the built-in one: `engine` runs once per observed
/// attempt, never memoized. On a clique config it sees only observations
/// that pass the built-in engine's gapped-observation screen; on a
/// restricted or planned config no built-in engine or graph is built.
[[nodiscard]] sim_report replay_trace(const sim_trace& trace,
                                      const posterior_fn& engine);

/// Serializes a trace as versioned, line-oriented text. Deterministic and
/// exact: floating-point fields are written as IEEE-754 bit patterns (hex),
/// so write/read round-trips reproduce every double bit for bit and equal
/// traces render byte-identically. See README for the line grammar.
void write_trace(const sim_trace& trace, std::ostream& os);

/// Parses a serialized trace. The stream is *untrusted input*: any
/// truncation, mangled token, out-of-range value, oversized count, or
/// version mismatch throws anonpath::parse_error (an std::invalid_argument
/// whose kind() classifies the failure and whose message names the
/// offending field) — never a contract violation, crash, or unbounded
/// allocation. A returned trace satisfies every precondition of
/// replay_trace and of run_simulation(trace.config): a config the rulebook
/// (invalid_reason) rejects is out_of_range, with the rule as the message,
/// and so is an origin or relay event whose reporter is outside the
/// effective compromised set (adversary_view's precondition).
[[nodiscard]] sim_trace read_trace(std::istream& is);

}  // namespace anonpath::sim
