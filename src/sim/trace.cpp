#include "src/sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/text_codec.hpp"

namespace anonpath::sim {

namespace {

constexpr char magic[] = "anonpath-trace";

/// Untrusted counts never become allocations: reserve at most this many
/// slots up front and let push_back grow past it — a lying count then hits
/// "truncated stream" on the first missing entry instead of pre-allocating
/// gigabytes.
constexpr std::uint32_t max_reserve = 1u << 20;

/// The format is whitespace-delimited, so free-text fields (the strategy
/// label) must collapse to a single token on the wire.
std::string tokenize_label(const std::string& label) {
  std::string out = label.empty() ? std::string("Custom") : label;
  for (char& c : out)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  return out;
}

const char* law_label(workload::popularity_kind kind) {
  return kind == workload::popularity_kind::uniform ? "uniform" : "zipf";
}

/// The value among `values` whose writer label `label` is the next token.
/// Only labels the writer emits parse, so write(read(t)) stays
/// byte-identical (no CLI aliases, no never-written defaults).
template <class Enum, class Label>
Enum read_label(stats::token_reader& in, const std::string& field,
                std::initializer_list<Enum> values, Label label) {
  const std::string tok = in.next(field);
  for (const Enum v : values)
    if (tok == label(v)) return v;
  in.fail(parse_error_kind::malformed, "unknown " + field + " '" + tok + "'");
}

}  // namespace

void write_trace(const sim_trace& trace, std::ostream& os) {
  using stats::put_hex_double;
  const sim_config& c = trace.config;
  os << magic << " v" << sim_trace::format_version << '\n';
  os << "sys " << c.sys.node_count << ' ' << c.sys.compromised_count << '\n';
  os << "compromised-config " << c.compromised.size();
  for (node_id id : c.compromised) os << ' ' << id;
  os << '\n';
  const auto& pmf = c.lengths.dense_pmf();
  os << "dist " << tokenize_label(c.lengths.label()) << ' ' << pmf.size();
  for (double p : pmf) put_hex_double(os, p);
  os << "\nmode " << routing_mode_label(c.mode) << "\nforward";
  put_hex_double(os, c.forward_prob);
  os << "\nmessages " << c.message_count << "\nrate";
  put_hex_double(os, c.arrival_rate);
  os << "\nlatency";
  put_hex_double(os, c.latency.base);
  put_hex_double(os, c.latency.jitter);
  put_hex_double(os, c.latency.processing);
  os << "\ndrop";
  put_hex_double(os, c.faults.drop_probability);
  os << "\nseed " << c.seed << "\nadversary "
     << adversary_kind_label(c.adversary.kind);
  put_hex_double(os, c.adversary.coverage_fraction);
  os << ' ' << (c.adversary.receiver_compromised ? 1 : 0) << "\nthreshold";
  put_hex_double(os, c.identified_threshold);
  os << "\ncollect " << (c.collect_posteriors ? 1 : 0) << '\n';
  // Session, topology and churn ride as optional extension lines, written
  // only when they differ from the historical defaults: every pre-extension
  // config still serializes byte-identically (the committed golden trace
  // pins this), and absent lines parse back to the defaults.
  if (c.session.enabled()) {
    os << "session " << c.session.rounds << ' ' << c.session.receiver_count
       << ' ' << law_label(c.session.receiver_law.kind);
    put_hex_double(os, c.session.receiver_law.exponent);
    os << ' ' << c.session.target_sender << ' ' << c.session.partner << ' '
       << attack::attack_kind_label(c.session.attack) << '\n';
  }
  // Additive: the exact (historical) backend writes no line, so every
  // pre-streaming trace stays byte-identical.
  if (c.session.stream != workload::stream_backend::exact)
    os << "stream " << workload::stream_backend_label(c.session.stream)
       << '\n';
  if (c.topology.kind != net::topology_kind::complete) {
    os << "topology " << topology_kind_name(c.topology.kind) << ' '
       << c.topology.ring_k << ' ' << c.topology.degree << ' '
       << c.topology.graph_seed << ' ' << c.topology.tiers;
    put_hex_double(os, c.topology.trust_decay);
    os << '\n';
  }
  if (c.faults.churn.enabled()) {
    os << "churn";
    put_hex_double(os, c.faults.churn.down_rate);
    put_hex_double(os, c.faults.churn.mean_downtime);
    os << '\n';
  }
  // Fault-plan and retry extensions, same additive discipline as the
  // sections above: absent for the historical defaults, so every
  // pre-fault-plan config still serializes byte-identically.
  if (!c.faults.outages.empty()) {
    os << "outages " << c.faults.outages.size() << '\n';
    for (const net::outage& o : c.faults.outages) {
      os << "E " << o.node;
      put_hex_double(os, o.start);
      put_hex_double(os, o.duration);
      os << '\n';
    }
  }
  if (c.faults.mix_failures.enabled()) {
    os << "mixfail " << c.faults.mix_failures.count;
    put_hex_double(os, c.faults.mix_failures.horizon);
    put_hex_double(os, c.faults.mix_failures.mean_duration);
    os << '\n';
  }
  if (c.retry.enabled()) {
    os << "retry " << c.retry.max_retries;
    put_hex_double(os, c.retry.timeout);
    put_hex_double(os, c.retry.backoff);
    put_hex_double(os, c.retry.max_timeout);
    os << '\n';
  }
  // Planned-routing extension: absent for the default walk model, so every
  // pre-routing config still serializes byte-identically.
  if (c.routing.planned())
    os << "routing kpaths " << c.routing.k << '\n';
  os << "compromised " << trace.compromised.size();
  for (node_id id : trace.compromised) os << ' ' << id;
  os << '\n';
  // Written exactly when the retry policy is on (possibly with zero
  // realized retransmissions), so write(read(t)) stays byte-identical
  // both with and without the section.
  if (c.retry.enabled()) {
    os << "attempts " << trace.attempts.size() << '\n';
    for (const auto& [id, parent] : trace.attempts)
      os << "A " << id << ' ' << parent << '\n';
  }
  os << "events " << trace.events.size() << '\n';
  for (const adversary_event& e : trace.events) {
    switch (e.type) {
      case adversary_event::kind::origin:
        os << "O " << e.msg << ' ' << e.reporter << '\n';
        break;
      case adversary_event::kind::relay:
        os << "T " << e.msg;
        put_hex_double(os, e.at);
        os << ' ' << e.reporter << ' ' << e.predecessor << ' ' << e.successor
           << '\n';
        break;
      case adversary_event::kind::receipt:
        os << "R " << e.msg;
        put_hex_double(os, e.at);
        os << ' ' << e.predecessor << '\n';
        break;
    }
  }
  os << "truths " << trace.truths.size() << '\n';
  for (const message_truth& t : trace.truths) {
    os << "G " << t.msg << ' ' << t.outcome.origin;
    put_hex_double(os, t.outcome.sent_at);
    put_hex_double(os, t.outcome.delivered_at);
    os << ' ' << (t.outcome.delivered ? 1 : 0) << ' ' << t.outcome.hops
       << '\n';
  }
  os << "end\n";
}

sim_trace read_trace(std::istream& is) {
  sim_trace trace;
  sim_config& c = trace.config;
  stats::token_reader in(is, "trace");
  const auto out_of_range = [&in](const std::string& what) {
    in.fail(parse_error_kind::out_of_range, what);
  };

  const std::string head = in.next("magic");
  if (head != magic)
    in.fail(parse_error_kind::mismatch,
            "not an anonpath trace (bad magic '" + head + "')");
  const std::string version = in.next("version");
  const std::string want = "v" + std::to_string(sim_trace::format_version);
  if (version != want)
    in.fail(parse_error_kind::version_mismatch,
            "format version mismatch: file has '" + version +
                "', this build reads '" + want + "'");

  // Config ranges are the rulebook's (invalid_reason, checked once below);
  // this reader keeps the format rules: grammar, section order, the
  // never-written defaults, and the guards that stop a hostile count or id
  // from becoming an allocation or an out-of-bounds index.
  in.expect("sys");
  c.sys.node_count = in.u32("node count");
  c.sys.compromised_count = in.u32("compromised count");

  in.expect("compromised-config");
  const std::uint32_t config_comp = in.u32("configured compromised size");
  c.compromised.clear();
  c.compromised.reserve(std::min(config_comp, max_reserve));
  for (std::uint32_t i = 0; i < config_comp; ++i)
    c.compromised.push_back(in.u32("configured compromised id"));

  in.expect("dist");
  const std::string dist_label = in.next("distribution label");
  const std::uint32_t pmf_size = in.u32("pmf size");
  // Support always fits simple paths, so a count past N is corruption, not
  // data — and must not become a giant allocation.
  if (pmf_size == 0)
    in.fail(parse_error_kind::malformed, "empty length distribution");
  if (pmf_size > c.sys.node_count) out_of_range("pmf size > N");
  std::vector<double> pmf;
  pmf.reserve(std::min(pmf_size, max_reserve));
  stats::kahan_sum pmf_sum;  // same accumulator the ctor contract uses
  for (std::uint32_t i = 0; i < pmf_size; ++i) {
    const double p = in.hex_double("pmf entry");
    // Pre-validated here so hostile bytes surface as parse_error, never as
    // the distribution constructor's contract violation.
    if (!(std::isfinite(p) && p >= 0.0)) out_of_range("pmf entry out of range");
    pmf_sum.add(p);
    pmf.push_back(p);
  }
  if (!(std::fabs(pmf_sum.value() - 1.0) < 1e-9))
    out_of_range("pmf does not sum to 1");
  c.lengths = path_length_distribution::from_pmf(std::move(pmf), dist_label);

  in.expect("mode");
  c.mode = read_label(in, "routing mode",
                      {routing_mode::source_routed, routing_mode::hop_by_hop},
                      routing_mode_label);

  in.expect("forward");
  c.forward_prob = in.hex_double("forward probability");
  in.expect("messages");
  c.message_count = in.u32("message count");
  in.expect("rate");
  c.arrival_rate = in.hex_double("arrival rate");
  in.expect("latency");
  c.latency.base = in.hex_double("latency base");
  c.latency.jitter = in.hex_double("latency jitter");
  c.latency.processing = in.hex_double("latency processing");
  in.expect("drop");
  c.faults.drop_probability = in.hex_double("drop probability");
  in.expect("seed");
  c.seed = in.u64("seed");

  in.expect("adversary");
  c.adversary.kind = read_label(in, "adversary kind",
                                {adversary_kind::full_coalition,
                                 adversary_kind::partial_coverage,
                                 adversary_kind::timing_correlator},
                                adversary_kind_label);
  c.adversary.coverage_fraction = in.hex_double("coverage fraction");
  c.adversary.receiver_compromised = in.u32("receiver flag") != 0;

  in.expect("threshold");
  c.identified_threshold = in.hex_double("identified threshold");
  in.expect("collect");
  c.collect_posteriors = in.u32("collect flag") != 0;

  // Optional extension lines (absent = historical defaults). The grammar
  // stays one-to-one with the writer: each section at most once, in writer
  // order, and the never-written defaults ("topology complete", churn rate
  // 0, empty outage list, retry budget 0) are rejected so write(read(t))
  // is byte-identical to any accepted t. Section order is pinned by rank —
  // a duplicate is just a rank that does not increase.
  static constexpr std::string_view sections[] = {
      "session", "stream", "topology", "churn",
      "outages", "mixfail", "retry",   "routing"};
  const auto section_rank = [](const std::string& s) -> int {
    const auto* it = std::find(std::begin(sections), std::end(sections), s);
    return it == std::end(sections) ? -1 : static_cast<int>(it - sections);
  };
  int last_rank = -1;
  std::string section = in.next("compromised");
  while (section_rank(section) >= 0) {
    const int rank = section_rank(section);
    if (rank <= last_rank)
      in.fail(parse_error_kind::malformed,
              "'" + section + "' section is duplicated or out of order");
    last_rank = rank;
    if (section == "session") {
      c.session.rounds = in.u32("session rounds");
      c.session.receiver_count = in.u32("session receiver count");
      c.session.receiver_law.kind = read_label(
          in, "session receiver law",
          {workload::popularity_kind::uniform, workload::popularity_kind::zipf},
          law_label);
      c.session.receiver_law.exponent = in.hex_double("session law exponent");
      c.session.target_sender = in.u32("session target sender");
      c.session.partner = in.u32("session partner");
      c.session.attack = read_label(
          in, "session attack kind",
          {attack::attack_kind::none, attack::attack_kind::intersection,
           attack::attack_kind::sda, attack::attack_kind::sequential_bayes},
          attack::attack_kind_label);
      if (!c.session.enabled()) out_of_range("session rounds must be > 0");
    } else if (section == "stream") {
      c.session.stream = read_label(in, "stream backend",
                                    {workload::stream_backend::sketch},
                                    workload::stream_backend_label);
    } else if (section == "topology") {
      c.topology.kind = read_label(
          in, "topology kind",
          {net::topology_kind::ring, net::topology_kind::random_regular,
           net::topology_kind::tiered, net::topology_kind::trust_weighted},
          net::topology_kind_name);
      c.topology.ring_k = in.u32("topology ring_k");
      c.topology.degree = in.u32("topology degree");
      c.topology.graph_seed = in.u64("topology graph seed");
      c.topology.tiers = in.u32("topology tiers");
      c.topology.trust_decay = in.hex_double("topology trust decay");
    } else if (section == "churn") {
      c.faults.churn.down_rate = in.hex_double("churn down rate");
      c.faults.churn.mean_downtime = in.hex_double("churn mean downtime");
      if (!c.faults.churn.enabled()) out_of_range("churn rate must be > 0");
    } else if (section == "outages") {
      const std::uint32_t outage_count = in.u32("outage count");
      if (outage_count == 0) out_of_range("empty outages section");
      c.faults.outages.reserve(std::min(outage_count, max_reserve));
      for (std::uint32_t i = 0; i < outage_count; ++i) {
        in.expect("E");
        net::outage o;
        o.node = in.u32("outage node");
        o.start = in.hex_double("outage start");
        o.duration = in.hex_double("outage duration");
        c.faults.outages.push_back(o);
      }
    } else if (section == "mixfail") {
      c.faults.mix_failures.count = in.u32("mix failure count");
      c.faults.mix_failures.horizon = in.hex_double("mix failure horizon");
      c.faults.mix_failures.mean_duration =
          in.hex_double("mix failure mean duration");
      if (!c.faults.mix_failures.enabled())
        out_of_range("mix failure count must be > 0");
    } else if (section == "retry") {
      c.retry.max_retries = in.u32("retry budget");
      c.retry.timeout = in.hex_double("retry timeout");
      c.retry.backoff = in.hex_double("retry backoff");
      c.retry.max_timeout = in.hex_double("retry timeout cap");
      if (!c.retry.enabled()) out_of_range("retry budget must be > 0");
    } else {  // routing
      // Only the non-default kind is ever written ("walk" is rejected).
      in.expect("kpaths");
      c.routing.kind = net::route_select::kpaths;
      c.routing.k = in.u32("routing k");
    }
    section = in.next("compromised");
  }
  if (section != "compromised")
    in.fail(parse_error_kind::malformed,
            "expected 'compromised', found '" + section + "'");
  // The whole config is known now: one rulebook check, before anything
  // N-sized (replay's engines) could be allocated for it.
  if (const char* why = invalid_reason(c)) out_of_range(why);

  const std::uint32_t effective_comp = in.u32("effective compromised size");
  if (effective_comp > c.sys.node_count)
    out_of_range("effective compromised size > N");
  trace.compromised.reserve(std::min(effective_comp, max_reserve));
  std::vector<bool> effective(c.sys.node_count, false);
  for (std::uint32_t i = 0; i < effective_comp; ++i) {
    const node_id id = in.u32("effective compromised id");
    if (id >= c.sys.node_count) out_of_range("compromised id out of range");
    // Strictly ascending, like the writer emits: scoring keys its engine
    // by this list.
    if (!trace.compromised.empty() && id <= trace.compromised.back())
      out_of_range("effective compromised ids must ascend");
    trace.compromised.push_back(id);
    effective[id] = true;
  }

  // The attempt map rides exactly when the retry policy is on: ids are
  // strictly ascending (unique, byte-stable rewrite), live strictly above
  // the original 1..message_count range, within the ids the retry budget
  // can issue, and point back into it.
  if (c.retry.enabled()) {
    const std::uint64_t last_issuable =
        std::uint64_t{c.message_count} *
        (std::uint64_t{c.retry.max_retries} + 1);
    in.expect("attempts");
    const std::uint32_t attempt_count = in.u32("attempt count");
    std::uint64_t last_attempt = c.message_count;
    for (std::uint32_t i = 0; i < attempt_count; ++i) {
      in.expect("A");
      const std::uint64_t id = in.u64("attempt id");
      const std::uint64_t parent = in.u64("attempt parent");
      if (id <= last_attempt)
        out_of_range("attempt ids must ascend past the message count");
      if (id > last_issuable)
        out_of_range("attempt id beyond the retry budget");
      if (parent < 1 || parent > c.message_count)
        out_of_range("attempt parent out of range");
      last_attempt = id;
      trace.attempts.emplace(id, parent);
    }
  }

  in.expect("events");
  const std::uint32_t event_count = in.u32("event count");
  // Grow incrementally: a corrupted count then hits "truncated stream" on
  // the first missing entry instead of pre-allocating gigabytes.
  trace.events.reserve(std::min(event_count, max_reserve));
  // Node ids inside events index posterior-engine arrays of size N during
  // replay, so every one is range-checked here — hostile bytes must never
  // become an out-of-bounds index downstream.
  const auto check_node = [&](node_id v, const char* what) {
    if (v >= c.sys.node_count)
      out_of_range(std::string(what) + " out of range");
  };
  // Only a compromised node originates or relays a report.
  const auto check_reporter = [&](node_id v, const char* what) {
    check_node(v, what);
    if (!effective[v])
      out_of_range(std::string(what) + " is not in the compromised set");
  };
  const auto check_msg = [&](std::uint64_t msg) {
    if (msg >= 1 && msg <= c.message_count) return;
    if (trace.attempts.find(msg) != trace.attempts.end()) return;
    out_of_range("event message id out of range");
  };
  for (std::uint32_t i = 0; i < event_count; ++i) {
    adversary_event e;
    const std::string tag = in.next("event tag");
    e.msg = in.u64("event message id");
    check_msg(e.msg);
    if (tag == "O") {
      e.type = adversary_event::kind::origin;
      e.reporter = in.u32("origin sender");
      check_reporter(e.reporter, "origin sender");
    } else if (tag == "T") {
      e.type = adversary_event::kind::relay;
      e.at = in.hex_double("relay capture time");
      e.reporter = in.u32("relay reporter");
      e.predecessor = in.u32("relay predecessor");
      e.successor = in.u32("relay successor");
      check_reporter(e.reporter, "relay reporter");
      check_node(e.predecessor, "relay predecessor");
      if (e.successor != receiver_node)
        check_node(e.successor, "relay successor");
    } else if (tag == "R") {
      e.type = adversary_event::kind::receipt;
      e.at = in.hex_double("receipt time");
      e.predecessor = in.u32("receipt predecessor");
      check_node(e.predecessor, "receipt predecessor");
    } else {
      in.fail(parse_error_kind::malformed, "unknown event tag '" + tag + "'");
    }
    trace.events.push_back(e);
  }

  in.expect("truths");
  const std::uint32_t truth_count = in.u32("truth count");
  if (truth_count > c.message_count)
    out_of_range("truth count > message count");
  // Session-attack scoring consumes exactly one truth per message; accept
  // only traces that satisfy its contract.
  if (c.session.enabled() && c.session.attack != attack::attack_kind::none &&
      truth_count != c.message_count)
    out_of_range("session scoring requires one truth per message");
  trace.truths.reserve(std::min(truth_count, max_reserve));
  std::uint64_t last_truth = 0;
  for (std::uint32_t i = 0; i < truth_count; ++i) {
    message_truth t;
    in.expect("G");
    t.msg = in.u64("truth message id");
    // Strictly ascending, like the writer emits: rejects duplicates in
    // O(1) and keeps write(read(t)) byte-identical.
    if (t.msg <= last_truth || t.msg > c.message_count)
      out_of_range("truth message id out of range");
    last_truth = t.msg;
    t.outcome.origin = in.u32("truth origin");
    check_node(t.outcome.origin, "truth origin");
    t.outcome.sent_at = in.hex_double("truth sent time");
    t.outcome.delivered_at = in.hex_double("truth delivery time");
    t.outcome.delivered = in.u32("truth delivered flag") != 0;
    t.outcome.hops = in.u32("truth hops");
    trace.truths.push_back(t);
  }

  in.expect("end");
  return trace;
}

sim_trace capture_trace(const sim_config& config, const net::topology* graph) {
  std::optional<net::topology> owned;
  return detail::run_core(config, detail::graph_for(config, graph, owned))
      .trace;
}

sim_report replay_trace(const sim_trace& trace, const net::topology* graph) {
  // Only source-routed runs score on their graph.
  std::optional<net::topology> owned;
  if (trace.config.mode == routing_mode::source_routed)
    graph = detail::graph_for(trace.config, graph, owned);
  cell_scorer scorer(graph);
  return detail::score_run(trace, scorer);
}

sim_report replay_trace(const sim_trace& trace, const posterior_fn& engine) {
  ANONPATH_EXPECTS(static_cast<bool>(engine));
  cell_scorer scorer(nullptr, &engine);
  return detail::score_run(trace, scorer);
}

}  // namespace anonpath::sim
