#include "src/sim/campaign_axes.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "src/stats/error.hpp"
#include "src/stats/text_codec.hpp"

namespace anonpath::sim {

std::vector<std::string> split_tokens(const std::string& spec, char delim,
                                      const char* what) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const auto at = spec.find(delim, pos);
    out.push_back(spec.substr(pos, at == std::string::npos ? at : at - pos));
    if (out.back().empty())
      throw parse_error(parse_error_kind::malformed, what,
                        "empty element in '" + spec + "'");
    if (at == std::string::npos) return out;
    pos = at + 1;
  }
}

namespace {

[[noreturn]] void bad(parse_error_kind kind, const char* what,
                      const std::string& detail) {
  throw parse_error(kind, what, detail);
}

}  // namespace

std::uint32_t parse_u32_token(const std::string& token, const char* what) {
  return static_cast<std::uint32_t>(
      stats::read_u64(token, what, "", 0xFFFFFFFFull));
}

std::uint64_t parse_u64_token(const std::string& token, const char* what) {
  return stats::read_u64(token, what, "");
}

double parse_finite_token(const std::string& token, const char* what) {
  // strtod also reads inf/nan spellings and hex floats; none is a
  // meaningful value for any flag, so only decimal characters get through.
  const bool decimal =
      !token.empty() && token.find_first_not_of("0123456789+-.eE") ==
                            std::string::npos;
  char* end = nullptr;
  errno = 0;
  const double v = decimal ? std::strtod(token.c_str(), &end) : 0.0;
  if (!decimal || *end != '\0' || errno == ERANGE || !std::isfinite(v))
    bad(parse_error_kind::malformed, what,
        "'" + token + "' is not a finite decimal number");
  return v;
}

namespace {

// ---- element parsers --------------------------------------------------------
// Each takes the axis flag, which names the input in its parse_error.

/// Longest path length a --dist spec may name. Lengths are dense pmf
/// indices, so an unbounded one would be an unbounded allocation.
constexpr path_length max_spec_path_length = 1u << 20;

/// F:l | U:a,b | G:pf,min,max | P:lambda,max.
path_length_distribution parse_length_distribution(const std::string& spec,
                                                   const char* flag) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos)
    bad(parse_error_kind::malformed, flag,
        "'" + spec + "' wants F:l | U:a,b | G:pf,min,max | P:lambda,max");
  const std::string kind = spec.substr(0, colon);
  const std::vector<std::string> args =
      split_tokens(spec.substr(colon + 1), ',', flag);
  const auto length = [&](std::size_t i) {
    const path_length l = parse_u32_token(args[i], flag);
    if (l > max_spec_path_length)
      bad(parse_error_kind::out_of_range, flag,
          "length " + args[i] + " exceeds " +
              std::to_string(max_spec_path_length));
    return l;
  };
  const auto ordered = [&](path_length lo, path_length hi) {
    if (lo > hi)
      bad(parse_error_kind::out_of_range, flag,
          "'" + spec + "' has its minimum above its maximum");
  };
  if (kind == "F" && args.size() == 1)
    return path_length_distribution::fixed(length(0));
  if (kind == "U" && args.size() == 2) {
    const path_length a = length(0), b = length(1);
    ordered(a, b);
    return path_length_distribution::uniform(a, b);
  }
  if (kind == "G" && args.size() == 3) {
    const double pf = parse_finite_token(args[0], flag);
    if (!(pf >= 0.0 && pf < 1.0))
      bad(parse_error_kind::out_of_range, flag,
          "G forward probability must be in [0, 1)");
    const path_length lo = length(1), hi = length(2);
    ordered(lo, hi);
    return path_length_distribution::geometric(pf, lo, hi);
  }
  if (kind == "P" && args.size() == 2) {
    // exp(-lambda) must stay a normal double for the pmf to normalize.
    const double lambda = parse_finite_token(args[0], flag);
    if (!(lambda > 0.0 && lambda <= 700.0))
      bad(parse_error_kind::out_of_range, flag,
          "P lambda must be in (0, 700]");
    return path_length_distribution::poisson(lambda, length(1));
  }
  bad(parse_error_kind::malformed, flag,
      "unrecognized form '" + spec +
          "' (want F:l | U:a,b | G:pf,min,max | P:lambda,max)");
}

routing_mode parse_routing_mode(const std::string& token, const char* flag) {
  if (token == "onion" || token == "source_routed")
    return routing_mode::source_routed;
  if (token == "crowds" || token == "hop_by_hop")
    return routing_mode::hop_by_hop;
  bad(parse_error_kind::malformed, flag, "values are onion|crowds");
}

double parse_drop_probability(const std::string& token, const char* flag) {
  const double p = parse_finite_token(token, flag);
  if (!(p >= 0.0 && p < 1.0))
    bad(parse_error_kind::out_of_range, flag, "values must be in [0, 1)");
  return p;
}

double parse_arrival_rate(const std::string& token, const char* flag) {
  const double r = parse_finite_token(token, flag);
  if (!(r > 0.0))
    bad(parse_error_kind::out_of_range, flag, "values must be > 0");
  return r;
}

/// full | partial:<f>[:honest] | timing. The fraction is required: a bare
/// `partial` would cover every node and ignore --c.
adversary_config parse_adversary(const std::string& spec, const char* flag) {
  adversary_config cfg;
  if (spec == "full") return cfg;
  if (spec == "timing") {
    cfg.kind = adversary_kind::timing_correlator;
    return cfg;
  }
  const std::vector<std::string> args = split_tokens(spec, ':', flag);
  if (args[0] != "partial" || args.size() < 2 || args.size() > 3 ||
      (args.size() == 3 && args[2] != "honest"))
    bad(parse_error_kind::malformed, flag,
        "values are full|partial:<f>[:honest]|timing");
  cfg.kind = adversary_kind::partial_coverage;
  cfg.coverage_fraction = parse_finite_token(args[1], flag);
  cfg.receiver_compromised = args.size() < 3;
  if (!cfg.valid())
    bad(parse_error_kind::out_of_range, flag,
        "coverage fraction must be in [0, 1]");
  return cfg;
}

/// complete | ring:<k> | regular:<d>[:<seed>] | tiered:<t> | trust:<decay>.
net::topology_config parse_topology(const std::string& spec,
                                    const char* flag) {
  net::topology_config cfg;
  const std::vector<std::string> parts = split_tokens(spec, ':', flag);
  const std::string& kind = parts[0];
  const std::size_t args = parts.size() - 1;
  const auto at_least = [&](std::uint32_t lo, const char* msg) {
    const std::uint32_t v = parse_u32_token(parts[1], flag);
    if (v < lo) bad(parse_error_kind::out_of_range, flag, msg);
    return v;
  };
  if (kind == "complete" && args == 0) return cfg;
  if (kind == "ring" && args == 1) {
    cfg.kind = net::topology_kind::ring;
    cfg.ring_k = at_least(1, "ring:<k> needs k >= 1");
    return cfg;
  }
  if (kind == "regular" && (args == 1 || args == 2)) {
    cfg.kind = net::topology_kind::random_regular;
    cfg.degree = at_least(2, "regular:<d> needs d >= 2");
    // The wiring seed is a full 64-bit value (matches graph_seed and the
    // trace format), unlike the 32-bit structural parameters.
    if (args == 2) cfg.graph_seed = parse_u64_token(parts[2], flag);
    return cfg;
  }
  if (kind == "tiered" && args == 1) {
    cfg.kind = net::topology_kind::tiered;
    cfg.tiers = at_least(2, "tiered:<t> needs t >= 2");
    return cfg;
  }
  if (kind == "trust" && args == 1) {
    cfg.kind = net::topology_kind::trust_weighted;
    cfg.trust_decay = parse_finite_token(parts[1], flag);
    if (!(cfg.trust_decay > 0.0 && cfg.trust_decay <= 1.0))
      bad(parse_error_kind::out_of_range, flag,
          "trust:<decay> needs decay in (0, 1]");
    return cfg;
  }
  bad(parse_error_kind::malformed, flag,
      "values are "
      "complete|ring:<k>|regular:<d>[:<seed>]|tiered:<t>|trust:<decay>");
}

/// walk | kpaths[:<k>].
net::routing_config parse_routing(const std::string& spec, const char* flag) {
  net::routing_config cfg;
  if (spec == "walk") return cfg;
  if (spec == "kpaths" || spec.rfind("kpaths:", 0) == 0) {
    cfg.kind = net::route_select::kpaths;
    if (spec.size() > 6) cfg.k = parse_u32_token(spec.substr(7), flag);
    if (!cfg.valid())
      bad(parse_error_kind::out_of_range, flag,
          "kpaths:<k> needs k in [1, 64]");
    return cfg;
  }
  bad(parse_error_kind::malformed, flag, "values are walk|kpaths[:<k>]");
}

/// 0 | <down_rate>[:<mean_downtime>].
net::churn_config parse_churn(const std::string& spec, const char* flag) {
  const std::vector<std::string> args = split_tokens(spec, ':', flag);
  if (args.size() > 2)
    bad(parse_error_kind::malformed, flag,
        "want 0 or <down_rate>[:<mean_downtime>]");
  net::churn_config cfg;
  cfg.down_rate = parse_finite_token(args[0], flag);
  if (args.size() == 2) cfg.mean_downtime = parse_finite_token(args[1], flag);
  if (!cfg.valid() || !(cfg.mean_downtime > 0.0))
    bad(parse_error_kind::out_of_range, flag,
        "want down_rate >= 0 and mean_downtime > 0");
  return cfg;
}

/// <count>[:<horizon>[:<mean_duration>]].
mix_failure_config parse_mix_failure(const std::string& spec,
                                     const char* flag) {
  const std::vector<std::string> args = split_tokens(spec, ':', flag);
  if (args.size() > 3)
    bad(parse_error_kind::malformed, flag,
        "want <count>[:<horizon>[:<mean_duration>]]");
  mix_failure_config mf;
  mf.count = parse_u32_token(args[0], flag);
  if (args.size() > 1) mf.horizon = parse_finite_token(args[1], flag);
  if (args.size() > 2) mf.mean_duration = parse_finite_token(args[2], flag);
  if (!mf.valid())
    bad(parse_error_kind::out_of_range, flag,
        "want horizon >= 0 and mean_duration > 0");
  return mf;
}

/// <max>[:<timeout>[:<backoff>[:<max_timeout>]]].
retry_policy parse_retry(const std::string& spec, const char* flag) {
  const std::vector<std::string> args = split_tokens(spec, ':', flag);
  if (args.size() > 4)
    bad(parse_error_kind::malformed, flag,
        "want <max>[:<timeout>[:<backoff>[:<max_timeout>]]]");
  retry_policy p;
  p.max_retries = parse_u32_token(args[0], flag);
  if (args.size() > 1) p.timeout = parse_finite_token(args[1], flag);
  if (args.size() > 2) p.backoff = parse_finite_token(args[2], flag);
  if (args.size() > 3)
    p.max_timeout = parse_finite_token(args[3], flag);
  else if (p.max_timeout < p.timeout)
    p.max_timeout = p.timeout;  // an explicit long timeout caps itself
  if (!p.valid())
    bad(parse_error_kind::out_of_range, flag,
        "want timeout > 0, backoff >= 1, max_timeout >= timeout");
  return p;
}

std::uint32_t parse_population(const std::string& token, const char* flag) {
  const std::uint32_t p = parse_u32_token(token, flag);
  if (p == 1)
    bad(parse_error_kind::out_of_range, flag,
        "values must be 0 (session off) or >= 2");
  return p;
}

attack::attack_kind parse_attack(const std::string& token, const char* flag) {
  const auto kind = attack::parse_attack_kind(token);
  if (!kind)
    bad(parse_error_kind::malformed, flag,
        "values are none|intersection|sda|bayes");
  return *kind;
}

workload::stream_backend parse_stream(const std::string& token,
                                      const char* flag) {
  const auto backend = workload::parse_stream_backend(token);
  if (!backend)
    bad(parse_error_kind::malformed, flag, "values are exact|sketch");
  return *backend;
}

// ---- campaign_scope element serializers -------------------------------------
// Every axis element is fully expanded (labels alone could collide) and
// doubles travel as bit patterns.

using stats::put_hex_double;

void scope_u32(std::ostream& os, const std::uint32_t& v) { os << ' ' << v; }

void scope_double(std::ostream& os, const double& v) { put_hex_double(os, v); }

void scope_length_distribution(std::ostream& os,
                               const path_length_distribution& d) {
  os << " [" << d.label();
  for (double p : d.dense_pmf()) put_hex_double(os, p);
  os << ']';
}

void scope_mode(std::ostream& os, const routing_mode& m) {
  os << (m == routing_mode::source_routed ? " s" : " h");
}

void scope_adversary(std::ostream& os, const adversary_config& a) {
  os << ' ' << static_cast<int>(a.kind);
  put_hex_double(os, a.coverage_fraction);
  os << ' ' << (a.receiver_compromised ? 1 : 0);
}

void scope_topology(std::ostream& os, const net::topology_config& t) {
  os << ' ' << static_cast<int>(t.kind) << ' ' << t.ring_k << ' ' << t.degree
     << ' ' << t.graph_seed << ' ' << t.tiers;
  put_hex_double(os, t.trust_decay);
}

void scope_routing(std::ostream& os, const net::routing_config& r) {
  os << ' ' << static_cast<int>(r.kind) << ' ' << r.k;
}

void scope_churn(std::ostream& os, const net::churn_config& ch) {
  put_hex_double(os, ch.down_rate);
  put_hex_double(os, ch.mean_downtime);
}

void scope_mix_failure(std::ostream& os, const mix_failure_config& mf) {
  os << ' ' << mf.count;
  put_hex_double(os, mf.horizon);
  put_hex_double(os, mf.mean_duration);
}

void scope_retry(std::ostream& os, const retry_policy& r) {
  os << ' ' << r.max_retries;
  put_hex_double(os, r.timeout);
  put_hex_double(os, r.backoff);
  put_hex_double(os, r.max_timeout);
}

template <class Enum>
void scope_enum(std::ostream& os, const Enum& e) {
  os << ' ' << static_cast<int>(e);
}

}  // namespace

constexpr campaign_axis_table campaign_axes{
    campaign_axis<std::uint32_t>{
        "--n", true, &campaign_grid::node_counts, &scenario::node_count,
        &parse_u32_token, "n", &scope_u32},
    campaign_axis<std::uint32_t>{
        "--c", true, &campaign_grid::compromised_counts,
        &scenario::compromised_count, &parse_u32_token, "c", &scope_u32},
    campaign_axis<path_length_distribution>{
        "--dist", false, &campaign_grid::lengths, &scenario::lengths,
        &parse_length_distribution, "dist", &scope_length_distribution},
    campaign_axis<routing_mode>{
        "--mode", true, &campaign_grid::modes, &scenario::mode,
        &parse_routing_mode, "mode", &scope_mode},
    campaign_axis<double>{
        "--drop", true, &campaign_grid::drop_probabilities,
        &scenario::drop_probability, &parse_drop_probability, "drop",
        &scope_double},
    campaign_axis<double>{
        "--rate", true, &campaign_grid::arrival_rates, &scenario::arrival_rate,
        &parse_arrival_rate, "rate", &scope_double},
    campaign_axis<adversary_config>{
        "--adversary", true, &campaign_grid::adversaries, &scenario::adversary,
        &parse_adversary, "adv", &scope_adversary},
    campaign_axis<net::topology_config>{
        "--topology", true, &campaign_grid::topologies, &scenario::topology,
        &parse_topology, "topo", &scope_topology},
    campaign_axis<net::routing_config>{
        "--routing", true, &campaign_grid::routings, &scenario::routing,
        &parse_routing, "routing", &scope_routing},
    campaign_axis<net::churn_config>{
        "--churn", true, &campaign_grid::churns, &scenario::churn, &parse_churn,
        "churn", &scope_churn},
    campaign_axis<mix_failure_config>{
        "--mix-failures", true, &campaign_grid::mix_failures,
        &scenario::mix_failure, &parse_mix_failure, "mixfail",
        &scope_mix_failure},
    campaign_axis<retry_policy>{
        "--retry", true, &campaign_grid::retries, &scenario::retry,
        &parse_retry, "retry", &scope_retry},
    campaign_axis<std::uint32_t>{
        "--population", true, &campaign_grid::populations,
        &scenario::population, &parse_population, "pop", &scope_u32},
    campaign_axis<std::uint32_t>{
        "--rounds", true, &campaign_grid::session_rounds, &scenario::rounds,
        &parse_u32_token, "rounds", &scope_u32},
    campaign_axis<attack::attack_kind>{
        "--attack", true, &campaign_grid::attacks, &scenario::attack,
        &parse_attack, "attack", &scope_enum<attack::attack_kind>},
    campaign_axis<workload::stream_backend>{
        "--stream", true, &campaign_grid::streams, &scenario::stream,
        &parse_stream, "stream", &scope_enum<workload::stream_backend>},
};

}  // namespace anonpath::sim
