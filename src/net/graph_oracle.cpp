#include "src/net/graph_oracle.hpp"

#include <string>
#include <unordered_map>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/observation.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"

namespace anonpath::net {

namespace {

/// Recursively extends the walk one weighted hop at a time, carrying the
/// running path probability, and emits every completed walk.
template <typename Emit>
void enumerate_walks(const topology& topo, route& r, double prob,
                     path_length remaining, const Emit& emit) {
  if (remaining == 0) {
    emit(r, prob);
    return;
  }
  const node_id cur = r.hops.empty() ? r.sender : r.hops.back();
  const neighbor_view a = topo.adjacency(cur);
  const double total = topo.total_weight(cur);
  for (std::uint32_t i = 0; i < a.size; ++i) {
    r.hops.push_back(a.ids[i]);
    enumerate_walks(topo, r, prob * (a.weights[i] / total), remaining - 1,
                    emit);
    r.hops.pop_back();
  }
}

}  // namespace

graph_oracle::graph_oracle(system_params sys, std::vector<node_id> compromised,
                           const path_length_distribution& lengths,
                           const topology& topo) {
  ANONPATH_EXPECTS(sys.valid());
  ANONPATH_EXPECTS(sys.node_count <= 10);
  ANONPATH_EXPECTS(lengths.max_length() <= 8);
  ANONPATH_EXPECTS(topo.node_count() == sys.node_count);
  ANONPATH_EXPECTS(compromised.size() == sys.compromised_count);

  std::vector<bool> compromised_flag(sys.node_count, false);
  for (node_id c : compromised) {
    ANONPATH_EXPECTS(c < sys.node_count);
    ANONPATH_EXPECTS(!compromised_flag[c]);
    compromised_flag[c] = true;
  }

  const auto n = sys.node_count;

  struct bucket {
    observation obs;
    std::vector<double> mass;
  };
  std::unordered_map<std::string, bucket> buckets;
  buckets.reserve(1024);

  for (node_id s = 0; s < n; ++s) {
    for (path_length l = lengths.min_length(); l <= lengths.max_length(); ++l) {
      const double pl = lengths.pmf(l);
      if (pl <= 0.0) continue;
      route r;
      r.sender = s;
      r.hops.reserve(l);
      const double base = pl / static_cast<double>(n);  // uniform sender
      enumerate_walks(topo, r, base, l, [&](const route& full, double prob) {
        const observation obs = observe(full, compromised_flag);
        auto [it, inserted] = buckets.try_emplace(obs.key());
        if (inserted) {
          it->second.obs = obs;
          it->second.mass.assign(n, 0.0);
        }
        it->second.mass[full.sender] += prob;
      });
    }
  }

  stats::kahan_sum degree_acc;
  stats::kahan_sum total_acc;
  events_.reserve(buckets.size());
  for (auto& [key, b] : buckets) {
    event_record rec;
    rec.obs = std::move(b.obs);
    stats::kahan_sum p_acc;
    for (double m : b.mass) p_acc.add(m);
    rec.probability = p_acc.value();
    rec.posterior.resize(n);
    for (node_id i = 0; i < n; ++i)
      rec.posterior[i] = b.mass[i] / rec.probability;
    rec.entropy_bits = entropy_bits(rec.posterior);
    degree_acc.add(rec.probability * rec.entropy_bits);
    total_acc.add(rec.probability);
    events_.push_back(std::move(rec));
  }
  degree_ = degree_acc.value();
  total_ = total_acc.value();
}

}  // namespace anonpath::net
