#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/campaign.hpp"

namespace anonpath::sim {

/// One campaign axis, declared once. Every consumer that used to list the
/// axes by hand — cell_count, expand_grid's walk, the campaign_scope
/// fingerprint, the CLI flag parser — iterates campaign_axes instead, so a
/// new axis is one campaign_grid field, one scenario field and one table
/// entry (src/sim/campaign_axes.cpp).
template <class T>
struct campaign_axis {
  /// CLI flag that sets the axis, e.g. "--n".
  const char* flag;
  /// True when one flag value is a comma list of elements; false when each
  /// occurrence of the flag carries exactly one element (--dist, whose
  /// specs contain commas, repeats instead).
  bool comma_list;
  std::vector<T> campaign_grid::*values;
  T scenario::*coordinate;
  /// Checked element parser, called with `flag`: throws
  /// anonpath::parse_error naming the flag on malformed or out-of-range
  /// input, never a contract_violation.
  T (*parse)(const std::string& token, const char* flag);
  /// campaign_scope tag and element serializer. The serializer appends one
  /// element with its leading space; together they reproduce the grid-v1
  /// text byte for byte, which keeps every journal's fingerprint.
  const char* scope_tag;
  void (*put_scope)(std::ostream& os, const T& value);
};

/// The axis table, in grid order: node_counts outermost (slowest in
/// expand_grid), streams innermost.
using campaign_axis_table = std::tuple<
    campaign_axis<std::uint32_t>,             // --n
    campaign_axis<std::uint32_t>,             // --c
    campaign_axis<path_length_distribution>,  // --dist
    campaign_axis<routing_mode>,              // --mode
    campaign_axis<double>,                    // --drop
    campaign_axis<double>,                    // --rate
    campaign_axis<adversary_config>,          // --adversary
    campaign_axis<net::topology_config>,      // --topology
    campaign_axis<net::routing_config>,       // --routing
    campaign_axis<net::churn_config>,         // --churn
    campaign_axis<mix_failure_config>,        // --mix-failures
    campaign_axis<retry_policy>,              // --retry
    campaign_axis<std::uint32_t>,             // --population
    campaign_axis<std::uint32_t>,             // --rounds
    campaign_axis<attack::attack_kind>,       // --attack
    campaign_axis<workload::stream_backend>>; // --stream

extern const campaign_axis_table campaign_axes;

/// Calls f(axis) for every campaign axis, in grid order.
template <class F>
void for_each_axis(F&& f) {
  std::apply([&f](const auto&... axis) { (f(axis), ...); }, campaign_axes);
}

// Checked token parsers, shared by the axis parsers and the CLI's other
// numeric flags. `what` names the input in the parse_error ("--seed").

/// Splits on `delim`; an empty element is malformed.
[[nodiscard]] std::vector<std::string> split_tokens(const std::string& spec,
                                                    char delim,
                                                    const char* what);
/// Decimal digits only (src/stats/text_codec.hpp): a sign, whitespace or a
/// base prefix is malformed, a value past the width out_of_range.
[[nodiscard]] std::uint32_t parse_u32_token(const std::string& token,
                                            const char* what);
[[nodiscard]] std::uint64_t parse_u64_token(const std::string& token,
                                            const char* what);
/// Decimal notation only: inf, nan, hex floats and overflow are refused.
[[nodiscard]] double parse_finite_token(const std::string& token,
                                        const char* what);

}  // namespace anonpath::sim
