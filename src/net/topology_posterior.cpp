#include "src/net/topology_posterior.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/stats/contract.hpp"

namespace anonpath::net {

topology_posterior_engine::topology_posterior_engine(
    system_params sys, std::vector<node_id> compromised,
    path_length_distribution lengths, const topology& topo,
    std::vector<bool> interior_support)
    : sys_(sys),
      compromised_(std::move(compromised)),
      support_(std::move(interior_support)),
      lengths_(std::move(lengths)),
      topo_(topo) {
  ANONPATH_EXPECTS(sys_.valid());
  ANONPATH_EXPECTS(topo_.node_count() == sys_.node_count);
  ANONPATH_EXPECTS(compromised_.size() == sys_.compromised_count);
  ANONPATH_EXPECTS(support_.empty() || support_.size() == sys_.node_count);
  compromised_flag_.assign(sys_.node_count, false);
  for (node_id c : compromised_) {
    ANONPATH_EXPECTS(c < sys_.node_count);
    ANONPATH_EXPECTS(!compromised_flag_[c]);
    compromised_flag_[c] = true;
  }
  honest_interior_.assign(sys_.node_count, false);
  for (node_id x = 0; x < sys_.node_count; ++x)
    honest_interior_[x] =
        !compromised_flag_[x] && (support_.empty() || support_[x]);

  forward_.off.assign(1, 0);
  backward_.off.assign(1, 0);
  for (node_id x = 0; x < sys_.node_count; ++x) {
    const neighbor_view a = topo_.adjacency(x);
    for (std::uint32_t i = 0; i < a.size; ++i) {
      const node_id y = a.ids[i];
      if (honest_interior_[y]) {
        forward_.to.push_back(y);
        forward_.w.push_back(a.weights[i]);
      }
      if (honest_interior_[x]) {
        backward_.to.push_back(y);
        backward_.w.push_back(a.weights[i] / topo_.total_weight(y));
      }
    }
    forward_.off.push_back(forward_.to.size());
    backward_.off.push_back(backward_.to.size());
  }
}

void topology_posterior_engine::honest_step(const double* in, double* out,
                                            bool forward) const {
  // Forward: out[y] += (in[x] / total_weight(x)) * w(x,y). Transpose:
  // out[y] += in[x] * T(y->x); there x plays the step-target role, so only
  // honest in-support x carry arcs — compromised (or pruned) entries of
  // `in` are start-only values and never feed a later step.
  const auto n = sys_.node_count;
  const arc_lists& arcs = forward ? forward_ : backward_;
  std::fill(out, out + n, 0.0);
  for (node_id x = 0; x < n; ++x) {
    if (in[x] == 0.0) continue;
    const double scale = forward ? in[x] / topo_.total_weight(x) : in[x];
    for (std::size_t i = arcs.off[x]; i < arcs.off[x + 1]; ++i)
      out[arcs.to[i]] += scale * arcs.w[i];
  }
}

bool topology_posterior_engine::try_sender_posterior(
    const observation& obs, std::vector<double>& out) const {
  const auto n = sys_.node_count;
  out.assign(n, 0.0);
  if (obs.origin) {
    if (*obs.origin >= n) return false;
    out[*obs.origin] = 1.0;
    return true;
  }
  ANONPATH_EXPECTS(!obs.gapped);

  std::vector<path_fragment> fragments;
  try {
    fragments = assemble_fragments(obs, compromised_flag_);
  } catch (const std::invalid_argument&) {
    return false;
  }
  for (const auto& f : fragments)
    for (node_id x : f.nodes)
      if (x != receiver_node && x >= n) return false;

  const bool pinned =
      !fragments.empty() && fragments.back().nodes.back() == receiver_node;
  const bool v_known = obs.receiver_observed;
  const node_id v = obs.receiver_predecessor;

  // R terminates the walk: it may appear only as the last node of the last
  // fragment. (Real collection never violates this; fuzzed input can.)
  for (std::size_t f = 0; f < fragments.size(); ++f)
    for (std::size_t i = 0; i < fragments[f].nodes.size(); ++i)
      if (fragments[f].nodes[i] == receiver_node &&
          !(f + 1 == fragments.size() && i + 1 == fragments[f].nodes.size()))
        return false;

  if (v_known) {
    if (pinned) {
      // The pinned tail must name v as the receiver's predecessor.
      const auto& last = fragments.back().nodes;
      if (last.size() < 2 || last[last.size() - 2] != v) return false;
    } else {
      // A compromised terminal relay would have reported and pinned the
      // path; an unpinned v must be honest.
      if (v >= n || compromised_flag_[v]) return false;
    }
  } else if (fragments.empty()) {
    return false;  // nothing was observed at all
  }

  // Every reported transition must follow a graph edge (s-independent; a
  // violation zeroes every hypothesis at once).
  for (const auto& f : fragments)
    for (std::size_t i = 0; i + 1 < f.nodes.size(); ++i) {
      if (f.nodes[i + 1] == receiver_node) continue;  // delivery step, prob 1
      if (topo_.transition_prob(f.nodes[i], f.nodes[i + 1]) <= 0.0)
        return false;
    }

  // Block list over the extended walk y_0 = s, y_1..y_l, y_{l+1} = R: the
  // sender block, the fragments, and — unless a pinned fragment already
  // covers it — the terminal [v, R] block (or an open tail when the
  // receiver saw nothing).
  struct block {
    node_id first;
    node_id last;
    std::size_t span;
  };
  std::vector<block> blocks;
  blocks.push_back(block{0, 0, 1});  // sender placeholder; first/last unused
  for (const auto& f : fragments)
    blocks.push_back(block{f.nodes.front(), f.nodes.back(), f.nodes.size()});
  const bool open = !pinned && !v_known;
  if (!pinned && v_known) blocks.push_back(block{v, receiver_node, 2});

  std::size_t intra = 0;  // transitions inside blocks (known probabilities)
  for (const block& b : blocks) intra += b.span - 1;

  const path_length max_l = lengths_.max_length();
  const std::size_t dmax = static_cast<std::size_t>(max_l) + 1;

  // Gap series between consecutive blocks (skipping the sender gap, which
  // is handled for all s at once below): series[t] = probability of
  // crossing from block j's last node to block j+1's first node in t
  // honest-interior steps. The walk model has no global distinctness
  // constraint, so gaps are independent and their series convolve.
  std::vector<double> rest(dmax + 1, 0.0);
  rest[0] = 1.0;
  std::vector<double> cur, next(n), series, conv;
  const auto fold_into_rest = [&] {
    conv.assign(dmax + 1, 0.0);
    for (std::size_t t = 0; t <= dmax; ++t) {
      if (rest[t] == 0.0) continue;
      for (std::size_t u = 0; t + u <= dmax; ++u)
        conv[t + u] += rest[t] * series[u];
    }
    rest.swap(conv);
  };
  for (std::size_t j = 1; j + 1 < blocks.size(); ++j) {
    const node_id a = blocks[j].last;
    const node_id b = blocks[j + 1].first;
    series.assign(dmax + 1, 0.0);
    series[0] = (a == b) ? 1.0 : 0.0;
    cur.assign(n, 0.0);
    cur[a] = 1.0;
    for (std::size_t t = 1; t <= dmax; ++t) {
      honest_step(cur.data(), next.data(), /*forward=*/true);
      cur.swap(next);
      series[t] = b < n ? cur[b] : 0.0;
    }
    fold_into_rest();
  }
  if (open) {
    // Open tail after the last block: t honest steps ending anywhere.
    const node_id a = blocks.back().last;
    series.assign(dmax + 1, 0.0);
    series[0] = 1.0;
    cur.assign(n, 0.0);
    cur[a] = 1.0;
    for (std::size_t t = 1; t <= dmax; ++t) {
      honest_step(cur.data(), next.data(), /*forward=*/true);
      cur.swap(next);
      double sum = 0.0;
      for (double x : cur) sum += x;
      series[t] = sum;
    }
    fold_into_rest();
  }

  // Sender gap, all hypotheses at once: gs[t][s] = probability that a walk
  // from s reaches the first observed node in t steps, every step landing
  // on an honest node (backward DP from that node). Row t of the flat
  // buffer is gs[t][.], each row one step on from the row before it.
  const node_id b1 = blocks[1].first;
  std::vector<double> gs((dmax + 1) * n, 0.0);
  if (b1 < n) gs[b1] = 1.0;
  if (b1 < n && !compromised_flag_[b1])
    for (std::size_t t = 1; t <= dmax; ++t)
      honest_step(&gs[(t - 1) * n], &gs[t * n], /*forward=*/false);

  // coeff[t] = sum over lengths of pmf(l) * rest[D(l) - t], where D(l) is
  // the total gap budget the length implies; then the per-sender weight is
  // sum_t coeff[t] * gs[t][s]. The s-independent product of in-block
  // transition probabilities cancels in the normalization.
  std::vector<double> coeff(dmax + 1, 0.0);
  for (path_length l = lengths_.min_length(); l <= max_l; ++l) {
    const double pl = lengths_.pmf(l);
    if (pl <= 0.0) continue;
    const long long budget = static_cast<long long>(l) + (open ? 0 : 1) -
                             static_cast<long long>(intra);
    if (budget < 0) continue;
    const auto d = static_cast<std::size_t>(budget);
    for (std::size_t t = 0; t <= d && t <= dmax; ++t)
      if (rest[d - t] != 0.0) coeff[t] += pl * rest[d - t];
  }

  double z = 0.0;
  for (node_id s = 0; s < n; ++s) {
    if (compromised_flag_[s]) continue;  // no origin report => not the sender
    double acc = 0.0;
    for (std::size_t t = 0; t <= dmax; ++t)
      if (coeff[t] != 0.0) acc += coeff[t] * gs[t * n + s];
    out[s] = acc;
    z += acc;
  }
  if (!(z > 0.0) || !std::isfinite(z)) {
    out.assign(n, 0.0);
    return false;
  }
  for (node_id s = 0; s < n; ++s) out[s] /= z;
  return true;
}

std::vector<double> topology_posterior_engine::sender_posterior(
    const observation& obs) const {
  std::vector<double> out;
  const bool ok = try_sender_posterior(obs, out);
  ANONPATH_ENSURES(ok);
  return out;
}

bool topology_posterior_engine::explainable(const observation& obs) const {
  if (obs.gapped) return false;
  std::vector<double> scratch;
  return try_sender_posterior(obs, scratch);
}

}  // namespace anonpath::net
