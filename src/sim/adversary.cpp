#include "src/sim/adversary.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/sim/correlation.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {

const char* adversary_kind_label(adversary_kind kind) noexcept {
  switch (kind) {
    case adversary_kind::full_coalition: return "full_coalition";
    case adversary_kind::partial_coverage: return "partial_coverage";
    case adversary_kind::timing_correlator: return "timing_correlator";
  }
  return "unknown";
}

std::string adversary_config::label() const {
  if (kind == adversary_kind::partial_coverage) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "partial(f=%g%s)", coverage_fraction,
                  receiver_compromised ? "" : ";honest_r");
    return buf;
  }
  return adversary_kind_label(kind);
}

namespace {

/// Observations indexed by message id; ids without one stay disengaged.
using observation_log = std::vector<std::optional<observation>>;

/// The full and partial coalitions: reports fused per message id.
observation_log fuse_by_message(std::span<const adversary_event> events,
                                bool receiver_reports) {
  // One message's reports in filing order; a later origin or receipt
  // report of the same id replaces an earlier one.
  struct filed {
    std::optional<node_id> origin;
    std::vector<std::pair<sim_time, hop_report>> captures;
    std::optional<node_id> receiver_predecessor;
  };
  std::vector<filed> log;
  for (const adversary_event& e : events) {
    if (e.msg >= log.size()) log.resize(e.msg + 1);
    filed& f = log[e.msg];
    switch (e.type) {
      case adversary_event::kind::origin:
        f.origin = e.reporter;
        break;
      case adversary_event::kind::relay:
        f.captures.emplace_back(
            e.at, hop_report{e.reporter, e.predecessor, e.successor});
        break;
      case adversary_event::kind::receipt:
        // An honest receiver leaks nothing; the fabric still logs the
        // delivery because it cannot know which threat model it lives under.
        if (receiver_reports) f.receiver_predecessor = e.predecessor;
        break;
    }
  }
  observation_log observed(log.size());
  for (std::uint64_t id = 0; id < log.size(); ++id) {
    filed& f = log[id];
    if (receiver_reports ? !f.receiver_predecessor
                         : !f.origin && f.captures.empty())
      continue;
    std::stable_sort(
        f.captures.begin(), f.captures.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    observation& obs = observed[id].emplace();
    obs.origin = f.origin;
    obs.reports.reserve(f.captures.size());
    for (const auto& c : f.captures) obs.reports.push_back(c.second);
    if (receiver_reports)
      obs.receiver_predecessor = *f.receiver_predecessor;
    else
      obs.receiver_observed = false;
  }
  return observed;
}

/// The timing correlator: captures linked backwards from each delivery.
observation_log link_by_timing(const std::vector<bool>& compromised,
                               const latency_params& link,
                               std::span<const adversary_event> events) {
  // One forwarding step = relay processing + one link traversal.
  const double lo = link.processing + link.base;
  const double hi = lo + link.jitter;

  struct capture {
    sim_time at = 0.0;
    node_id reporter = 0;
    node_id predecessor = 0;
    node_id successor = 0;
  };
  struct receipt {
    sim_time at = 0.0;
    node_id predecessor = 0;
    std::uint64_t msg = 0;
  };
  std::vector<capture> captures;  // filing order (== time order)
  std::vector<receipt> receipts;  // delivery order
  for (const adversary_event& e : events) {
    if (e.type == adversary_event::kind::relay)
      captures.push_back({e.at, e.reporter, e.predecessor, e.successor});
    else if (e.type == adversary_event::kind::receipt)
      receipts.push_back({e.at, e.predecessor, e.msg});
  }
  // Captures by wire endpoints (reporter, successor), each bucket in
  // filing order: a link step visits exactly the captures whose endpoints
  // chain, in the order a scan of the whole log would.
  const auto wire = [](node_id reporter, node_id successor) {
    return std::uint64_t{reporter} << 32 | successor;
  };
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_wire;
  for (std::size_t ci = 0; ci < captures.size(); ++ci)
    by_wire[wire(captures[ci].reporter, captures[ci].successor)].push_back(ci);

  // Deliveries in time order (receipt order IS time order — the event queue
  // is causal — but sort defensively with the id as a deterministic tie
  // break so any logged stream behaves identically).
  std::vector<std::size_t> order(receipts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (receipts[a].at != receipts[b].at)
                       return receipts[a].at < receipts[b].at;
                     return receipts[a].msg < receipts[b].msg;
                   });

  observation_log observed;
  std::vector<bool> used(captures.size(), false);
  std::vector<bool> in_chain(compromised.size(), false);
  std::vector<std::size_t> chain;  // backwards: delivery-adjacent first
  for (const std::size_t ri : order) {
    const receipt& r = receipts[ri];
    chain.clear();
    // Seed: the capture whose reporter handed the message to R.
    node_id want_reporter = r.predecessor;
    node_id want_successor = receiver_node;
    sim_time later_at = r.at;
    for (;;) {
      double best_score = 0.0;
      std::size_t best = captures.size();
      const auto bucket = by_wire.find(wire(want_reporter, want_successor));
      if (bucket != by_wire.end()) {
        for (const std::size_t ci : bucket->second) {
          if (used[ci]) continue;
          const capture& c = captures[ci];
          // A chain mixing messages could revisit a node; no simple path
          // does, so the correlator refuses such a link outright.
          if (in_chain[c.reporter] ||
              (c.predecessor < in_chain.size() && in_chain[c.predecessor]))
            continue;
          const double score = timing_correlation(c.at, later_at, lo, hi);
          if (score > best_score) {
            best_score = score;
            best = ci;
          }
        }
      }
      if (best == captures.size()) break;
      used[best] = true;
      chain.push_back(best);
      const capture& c = captures[best];
      in_chain[c.reporter] = true;
      want_reporter = c.predecessor;
      want_successor = c.reporter;
      later_at = c.at;
      if (want_reporter >= compromised.size() || !compromised[want_reporter])
        break;  // the next hop back is honest: nothing more to link
    }

    observation obs;
    obs.gapped = true;
    obs.receiver_predecessor = r.predecessor;
    obs.reports.reserve(chain.size());
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const capture& c = captures[*it];
      in_chain[c.reporter] = false;
      obs.reports.push_back(hop_report{c.reporter, c.predecessor, c.successor});
    }
    if (r.msg >= observed.size()) observed.resize(r.msg + 1);
    if (!observed[r.msg]) observed[r.msg] = std::move(obs);
  }
  return observed;
}

}  // namespace

adversary_view::adversary_view(const adversary_config& config,
                               const std::vector<bool>& compromised,
                               const latency_params& link,
                               std::span<const adversary_event> events) {
  ANONPATH_EXPECTS(config.valid());
  ANONPATH_EXPECTS(!compromised.empty());
  ANONPATH_EXPECTS(link.valid());
  for (const adversary_event& e : events)
    if (e.type != adversary_event::kind::receipt)
      ANONPATH_EXPECTS(e.reporter < compromised.size() &&
                       compromised[e.reporter]);
  const bool receiver_reports =
      config.kind != adversary_kind::partial_coverage ||
      config.receiver_compromised;
  observed_ = config.kind == adversary_kind::timing_correlator
                  ? link_by_timing(compromised, link, events)
                  : fuse_by_message(events, receiver_reports);
}

std::vector<std::uint64_t> adversary_view::observed_messages() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t id = 0; id < observed_.size(); ++id)
    if (observed_[id]) out.push_back(id);
  return out;
}

const observation& adversary_view::assemble(std::uint64_t msg) const {
  if (msg >= observed_.size() || !observed_[msg])
    throw std::out_of_range("adversary: message not observed");
  return *observed_[msg];
}

// ---- configuration plumbing -------------------------------------------------

std::vector<bool> effective_compromised(const adversary_config& config,
                                        std::uint32_t node_count,
                                        const std::vector<node_id>& configured,
                                        std::uint64_t seed) {
  ANONPATH_EXPECTS(config.valid());
  ANONPATH_EXPECTS(node_count >= 1);
  std::vector<bool> flags(node_count, false);
  if (config.kind == adversary_kind::partial_coverage) {
    // A dedicated stream keyed off the seed: the draw is reproducible and
    // consumes nothing from the simulator's own generator chain.
    stats::rng gen = stats::rng::stream(seed, 0xadbe5a11u);
    for (node_id i = 0; i < node_count; ++i)
      flags[i] = gen.next_bernoulli(config.coverage_fraction);
    return flags;
  }
  for (node_id c : configured) {
    ANONPATH_EXPECTS(c < node_count);
    flags[c] = true;
  }
  return flags;
}

}  // namespace anonpath::sim
