#include "src/anonymity/posterior.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/logspace.hpp"

namespace anonpath {

posterior_engine::posterior_engine(system_params sys,
                                   std::vector<node_id> compromised,
                                   path_length_distribution lengths)
    : sys_(sys),
      compromised_(std::move(compromised)),
      lengths_(std::move(lengths)) {
  ANONPATH_EXPECTS(sys_.valid());
  ANONPATH_EXPECTS(compromised_.size() == sys_.compromised_count);
  ANONPATH_EXPECTS(lengths_.max_length() <= sys_.node_count - 1);
  compromised_flag_.assign(sys_.node_count, false);
  for (node_id c : compromised_) {
    ANONPATH_EXPECTS(c < sys_.node_count);
    ANONPATH_EXPECTS(!compromised_flag_[c]);
    compromised_flag_[c] = true;
  }
  const auto max_l = lengths_.max_length();

  // ln i! table sized for every argument the likelihood can present: falling
  // factorials of the honest pool (<= N) and binomials over T + g - 1 slots
  // (<= max_l + 2 + C + 1). Built with a compensated running sum so table
  // lookups match the seed's per-call Kahan summation to ~1 ulp.
  const std::size_t fact_max =
      std::max<std::size_t>(sys_.node_count,
                            static_cast<std::size_t>(max_l) + 3 +
                                sys_.compromised_count) +
      1;
  log_fact_.resize(fact_max + 1);
  stats::kahan_sum fact_acc;
  log_fact_[0] = 0.0;
  for (std::size_t i = 1; i <= fact_max; ++i) {
    fact_acc.add(std::log(static_cast<double>(i)));
    log_fact_[i] = fact_acc.value();
  }

  log_pl_.resize(max_l + 1);
  log_paths_per_len_.resize(max_l + 1);
  for (path_length l = 0; l <= max_l; ++l) {
    const double p = lengths_.pmf(l);
    log_pl_[l] = p > 0.0 ? std::log(p) : stats::log_zero();
    log_paths_per_len_[l] = table_log_falling_factorial(sys_.node_count - 1, l);
  }

  // Consistent layouts satisfy span <= l + 2 and gaps <= C + 1; anything
  // outside these bounds evaluates to zero likelihood without caching.
  span_cache_max_ = static_cast<long long>(max_l) + 2;
  gap_cache_max_ = static_cast<long long>(sys_.compromised_count) + 1;
  const std::size_t cache_size =
      static_cast<std::size_t>(span_cache_max_ + 1) *
      static_cast<std::size_t>(gap_cache_max_ + 1) *
      static_cast<std::size_t>(sys_.node_count + 1);
  likelihood_cache_.assign(cache_size,
                           std::numeric_limits<double>::quiet_NaN());
  seen_stamp_.assign(sys_.node_count, 0);
}

posterior_engine::block_layout posterior_engine::layout_for(
    const std::vector<path_fragment>& fragments, node_id v, bool v_known,
    bool gapped, node_id s) const {
  block_layout lay;
  if (s >= sys_.node_count) return lay;  // inconsistent
  // Without gaps a compromised sender would have filed an origin report;
  // with gaps its silence proves nothing, so it stays a candidate.
  if (!gapped && compromised_flag_[s]) return lay;

  // Whether the observation already pins the end of the path: the last
  // fragment's reporter saw itself forward to R.
  const bool pinned =
      !fragments.empty() && fragments.back().nodes.back() == receiver_node;

  if (v_known) {
    const bool v_compromised = v < sys_.node_count && compromised_flag_[v];
    if (!gapped && v_compromised && !pinned) {
      // Full collection: a compromised terminal relay must have reported.
      return lay;
    }
    if (pinned) {
      // The pinned tail must name v as the receiver's predecessor (for an
      // honest v this can never hold — the reporter in that slot is
      // compromised — which reproduces the historical consistency rule).
      const auto& last = fragments.back().nodes;
      if (last.size() < 2 || last[last.size() - 2] != v) return lay;
    }
  }
  // R may only terminate the path: any earlier fragment claiming to reach R
  // describes no simple path at all. (Only the new observation shapes can
  // present such inputs; full-coalition assembly cannot produce them.)
  if (gapped || !v_known) {
    for (std::size_t f = 0; f + 1 < fragments.size(); ++f)
      if (fragments[f].nodes.back() == receiver_node) return lay;
    for (const auto& frag : fragments)
      for (std::size_t i = 0; i + 1 < frag.nodes.size(); ++i)
        if (frag.nodes[i] == receiver_node) return lay;
  }

  // Stream over the conceptual block list — [s], fragments..., terminal
  // block — merging blocks whose boundary nodes coincide (same occurrence on
  // a simple path) and checking node distinctness with the stamp array; no
  // per-call allocation.
  if (++stamp_ == 0) {  // generation wrap: reset lazily, once per ~4e9 calls
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0u);
    stamp_ = 1;
  }
  long long span = 0;
  long long honest_observed = 0;
  long long distinct_observed = 0;
  long long merged_blocks = 0;
  bool first = true;
  bool ok = true;
  node_id prev_back = receiver_node;
  const auto visit = [&](const node_id* nodes, std::size_t len) {
    std::size_t start = 0;
    if (!first && prev_back != receiver_node && prev_back == nodes[0]) {
      start = 1;  // merged with the previous block; shared node already seen
    } else {
      ++merged_blocks;
    }
    first = false;
    for (std::size_t i = start; i < len; ++i) {
      const node_id x = nodes[i];
      ++span;
      if (x == receiver_node) continue;
      if (x >= sys_.node_count || seen_stamp_[x] == stamp_) {
        ok = false;
        return;
      }
      seen_stamp_[x] = stamp_;
      ++distinct_observed;
      if (!compromised_flag_[x]) ++honest_observed;
    }
    prev_back = nodes[len - 1];
  };

  visit(&s, 1);
  for (const auto& f : fragments) {
    if (!ok) return lay;
    visit(f.nodes.data(), f.nodes.size());
  }
  // Terminal block, unless the observation already pinned the path end:
  // [v, R] when the receiver reported, a lone [R] when it is honest (v is
  // then just one more unobserved slot in the final gap).
  if (!pinned && ok) {
    if (v_known) {
      const node_id terminal[2] = {v, receiver_node};
      visit(terminal, 2);
    } else {
      const node_id terminal[1] = {receiver_node};
      visit(terminal, 1);
    }
  }
  if (!ok) return lay;

  lay.consistent = true;
  lay.span_total = span;
  lay.gap_count = merged_blocks - 1;
  // Unobserved slots draw from the honest unobserved pool under full
  // collection; a lossy collector cannot exclude its silent compromised
  // peers, so there the pool is every node not pinned to an observed slot.
  lay.pool_size =
      gapped ? static_cast<long long>(sys_.node_count) - distinct_observed
             : static_cast<long long>(sys_.node_count) -
                   static_cast<long long>(sys_.compromised_count) -
                   honest_observed;
  return lay;
}

double posterior_engine::log_likelihood_from_layout_uncached(
    const block_layout& lay) const {
  if (!lay.consistent) return stats::log_zero();
  double acc = stats::log_zero();
  const auto max_l = lengths_.max_length();
  for (path_length l = lengths_.min_length(); l <= max_l; ++l) {
    if (log_pl_[l] == stats::log_zero()) continue;
    const long long t = static_cast<long long>(l) + 2 - lay.span_total;
    if (t < 0) continue;
    if (lay.gap_count == 0 && t != 0) continue;
    if (t > lay.pool_size) continue;
    double log_count = table_log_falling_factorial(lay.pool_size, t);
    if (lay.gap_count >= 1)
      log_count += table_log_binomial(t + lay.gap_count - 1, lay.gap_count - 1);
    acc = stats::log_add_exp(acc,
                             log_pl_[l] + log_count - log_paths_per_len_[l]);
  }
  return acc;
}

double posterior_engine::log_likelihood_from_layout(
    const block_layout& lay) const {
  if (!lay.consistent) return stats::log_zero();
  if (lay.span_total > span_cache_max_ || lay.gap_count > gap_cache_max_ ||
      lay.pool_size < 0 ||
      lay.pool_size > static_cast<long long>(sys_.node_count)) {
    ++memo_misses_;
    return log_likelihood_from_layout_uncached(lay);
  }
  const std::size_t idx =
      (static_cast<std::size_t>(lay.span_total) *
           static_cast<std::size_t>(gap_cache_max_ + 1) +
       static_cast<std::size_t>(lay.gap_count)) *
          static_cast<std::size_t>(sys_.node_count + 1) +
      static_cast<std::size_t>(lay.pool_size);
  double& slot = likelihood_cache_[idx];
  if (std::isnan(slot)) {
    ++memo_misses_;
    slot = log_likelihood_from_layout_uncached(lay);
  } else {
    ++memo_hits_;
  }
  return slot;
}

double posterior_engine::log_likelihood(const observation& obs,
                                        node_id s) const {
  if (obs.origin) {
    // A compromised sender is observed directly; only that hypothesis has
    // positive likelihood (magnitude does not matter for the posterior).
    return s == *obs.origin ? 0.0 : stats::log_zero();
  }
  const auto fragments = assemble_fragments(obs, compromised_flag_);
  return log_likelihood_from_layout(layout_for(
      fragments, obs.receiver_predecessor, obs.receiver_observed, obs.gapped,
      s));
}

bool posterior_engine::explainable(const observation& obs) const {
  if (obs.origin) return *obs.origin < sys_.node_count;
  std::vector<path_fragment> fragments;
  try {
    fragments = assemble_fragments(obs, compromised_flag_);
  } catch (const std::invalid_argument&) {
    return false;
  }
  for (node_id s = 0; s < sys_.node_count; ++s) {
    const double ll = log_likelihood_from_layout(
        layout_for(fragments, obs.receiver_predecessor, obs.receiver_observed,
                   obs.gapped, s));
    if (ll != stats::log_zero()) return true;
  }
  return false;
}

bool posterior_engine::try_sender_posterior(const observation& obs,
                                            std::vector<double>& out) const {
  if (obs.gapped && !explainable(obs)) return false;
  try {
    out = sender_posterior(obs);
  } catch (const std::invalid_argument&) {
    return false;  // the reports do not chain into path fragments
  }
  return true;
}

std::vector<double> posterior_engine::sender_posterior_reference(
    const observation& obs) const {
  const auto n = sys_.node_count;
  std::vector<double> post(n, 0.0);
  if (obs.origin) {
    post[*obs.origin] = 1.0;
    return post;
  }
  const auto fragments = assemble_fragments(obs, compromised_flag_);
  std::vector<double> logw(n, stats::log_zero());
  for (node_id s = 0; s < n; ++s) {
    // Deliberately bypasses the memo so tests can pit the cached fast path
    // against a from-scratch evaluation.
    logw[s] = log_likelihood_from_layout_uncached(
        layout_for(fragments, obs.receiver_predecessor, obs.receiver_observed,
                   obs.gapped, s));
  }
  const double z = stats::log_sum_exp(logw);
  ANONPATH_ENSURES(std::isfinite(z));
  for (node_id s = 0; s < n; ++s) post[s] = std::exp(logw[s] - z);
  return post;
}

std::vector<double> posterior_engine::sender_posterior(
    const observation& obs) const {
  const auto n = sys_.node_count;
  std::vector<double> post(n, 0.0);
  if (obs.origin) {
    post[*obs.origin] = 1.0;
    return post;
  }
  const auto fragments = assemble_fragments(obs, compromised_flag_);
  const node_id v = obs.receiver_predecessor;
  const bool v_known = obs.receiver_observed;

  // Likelihood classes: (a) the first fragment's predecessor (may be the
  // sender at position 0); (b) v itself (direct-send hypothesis); (c) any
  // node appearing in a block (zero — duplicate occurrence); (d) all other
  // unobserved candidates share one generic likelihood. Under full
  // collection compromised nodes are special (excluded without an origin
  // report); under gapped collection an unobserved compromised node is as
  // generic as any other candidate.
  class_scratch_.assign(n, 0);
  std::vector<char>& special = class_scratch_;
  if (!obs.gapped)
    for (node_id c : compromised_) special[c] = 1;
  for (const auto& f : fragments)
    for (node_id x : f.nodes)
      if (x != receiver_node && x < n) special[x] = 1;
  if (v_known && v < n) special[v] = 1;

  logw_scratch_.assign(n, stats::log_zero());
  std::vector<double>& logw = logw_scratch_;
  double generic = stats::log_zero();
  bool generic_done = false;
  for (node_id s = 0; s < n; ++s) {
    if (special[s]) continue;
    if (!generic_done) {
      generic = log_likelihood_from_layout(
          layout_for(fragments, v, v_known, obs.gapped, s));
      generic_done = true;
    }
    logw[s] = generic;
  }
  // Special candidates evaluated individually (first-fragment predecessor,
  // v, and observed nodes which come out inconsistent).
  for (node_id s = 0; s < n; ++s) {
    if (!special[s]) continue;
    if (!obs.gapped && compromised_flag_[s])
      continue;  // no origin report => not the sender
    logw[s] = log_likelihood_from_layout(
        layout_for(fragments, v, v_known, obs.gapped, s));
  }

  const double z = stats::log_sum_exp(logw);
  ANONPATH_ENSURES(std::isfinite(z));
  for (node_id s = 0; s < n; ++s) post[s] = std::exp(logw[s] - z);
  return post;
}

}  // namespace anonpath
