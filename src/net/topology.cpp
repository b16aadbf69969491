#include "src/net/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <tuple>
#include <utility>

#include "src/stats/contract.hpp"

namespace anonpath::net {

const char* topology_kind_name(topology_kind kind) noexcept {
  switch (kind) {
    case topology_kind::complete: return "complete";
    case topology_kind::ring: return "ring";
    case topology_kind::random_regular: return "regular";
    case topology_kind::tiered: return "tiered";
    case topology_kind::trust_weighted: return "trust";
  }
  return "?";
}

namespace {

/// The weight build_trust_edges gives the farthest ring distance N/2:
/// decay^(N/2 - 1), by the same repeated products, so the two agree on
/// exactly which (N, decay) pairs underflow to a zero-weight edge.
double farthest_trust_weight(std::uint32_t n, double decay) noexcept {
  double w = 1.0;
  for (std::uint32_t d = 2; d <= n / 2 && w > 0.0; ++d) w *= decay;
  return w;
}

}  // namespace

const char* topology_config::invalid_reason(
    std::uint32_t node_count) const noexcept {
  const char* const out_of_range = "--topology parameters out of range for --n";
  if (node_count < 2) return out_of_range;
  switch (kind) {
    case topology_kind::complete:
      return nullptr;
    case topology_kind::ring:
      return ring_k >= 1 && 2ull * ring_k <= node_count - 1 ? nullptr
                                                            : out_of_range;
    case topology_kind::random_regular:
      return degree >= 2 && degree < node_count &&
                     (static_cast<std::uint64_t>(node_count) * degree) % 2 == 0
                 ? nullptr
                 : out_of_range;
    case topology_kind::tiered:
      return tiers >= 2 && tiers <= node_count ? nullptr : out_of_range;
    case topology_kind::trust_weighted:
      if (!(trust_decay > 0.0 && trust_decay <= 1.0)) return out_of_range;
      if (farthest_trust_weight(node_count, trust_decay) == 0.0)
        return "--n is too large for the --topology trust decay: the "
               "farthest weight, decay^(N/2 - 1), underflows to 0";
      return nullptr;
  }
  return out_of_range;
}

std::string topology_config::label() const {
  char buf[64];
  switch (kind) {
    case topology_kind::complete:
      return "complete";
    case topology_kind::ring:
      std::snprintf(buf, sizeof buf, "ring(%u)", ring_k);
      return buf;
    case topology_kind::random_regular:
      std::snprintf(buf, sizeof buf, "regular(%u@%llu)", degree,
                    static_cast<unsigned long long>(graph_seed));
      return buf;
    case topology_kind::tiered:
      std::snprintf(buf, sizeof buf, "tiered(%u)", tiers);
      return buf;
    case topology_kind::trust_weighted:
      std::snprintf(buf, sizeof buf, "trust(%g)", trust_decay);
      return buf;
  }
  return "?";
}

namespace {

/// Union-find connectivity over an edge list: the same answer a BFS over
/// the built adjacency gives, without materializing it — the per-attempt
/// connectivity check in the random_regular generator runs on the raw edge
/// list this way.
bool edges_connect(std::uint32_t n, const std::vector<weighted_edge>& edges) {
  std::vector<node_id> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](node_id x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  std::uint32_t components = n;
  for (const weighted_edge& e : edges) {
    const node_id a = find(e.u);
    const node_id b = find(e.v);
    if (a != b) {
      parent[a] = b;
      --components;
    }
  }
  return components == 1;
}

void build_complete_edges(std::uint32_t n, std::vector<weighted_edge>& out) {
  out.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (node_id u = 0; u < n; ++u)
    for (node_id v = u + 1; v < n; ++v) out.push_back({u, v, 1.0});
}

void build_ring_edges(std::uint32_t n, std::uint32_t k,
                      std::vector<weighted_edge>& out) {
  out.reserve(static_cast<std::size_t>(n) * k);
  for (node_id u = 0; u < n; ++u)
    for (std::uint32_t j = 1; j <= k; ++j)
      out.push_back({u, static_cast<node_id>((u + j) % n), 1.0});
}

void build_random_regular_edges(std::uint32_t n, std::uint32_t degree,
                                std::uint64_t seed,
                                std::vector<weighted_edge>& out) {
  // d == 2 specializes to a seeded random Hamiltonian cycle (double-edge
  // swaps on 2-regular graphs split them into cycle unions almost surely).
  if (degree == 2) {
    stats::rng gen = stats::rng::stream(seed, 0);
    std::vector<node_id> order(n);
    for (node_id u = 0; u < n; ++u) order[u] = u;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[gen.next_below(i)]);
    out.reserve(n);
    for (node_id i = 0; i < n; ++i)
      out.push_back({order[i], order[(i + 1) % n], 1.0});
    return;
  }

  // d >= 3: start from a connected circulant d-regular base and randomize
  // with seeded degree-preserving double-edge swaps (the standard Markov
  // chain over d-regular simple graphs). Swaps can in principle disconnect
  // the graph; a random d-regular graph is connected with overwhelming
  // probability for d >= 3, so the per-attempt connectivity check makes a
  // handful of deterministic attempts practically infallible. Edge
  // presence lives in per-node neighbour slots — d node ids plus a fill
  // count per node, O(N*d) space. No node ever holds more than d
  // neighbours, and swaps preserve degree, so an edge test scans at most d
  // slots and an accepted swap rewrites four. Accept/reject decisions and
  // the rng draw order depend only on which edges are present, never on
  // how presence is stored, so every (seed, n, d) keeps its graph
  // (tests/topology_test.cpp pins it against a hash-set reference).
  std::vector<node_id> slots(static_cast<std::size_t>(n) * degree);
  std::vector<std::uint32_t> fill(n);
  const auto nbrs = [&](node_id u) {
    return slots.data() + static_cast<std::size_t>(u) * degree;
  };
  const auto linked = [&](node_id u, node_id v) {
    const node_id* s = nbrs(u);
    return std::find(s, s + fill[u], v) != s + fill[u];
  };
  // Rewrites u's slot holding `from` to hold `to`.
  const auto relink = [&](node_id u, node_id from, node_id to) {
    node_id* s = nbrs(u);
    *std::find(s, s + fill[u], from) = to;
  };
  for (std::uint64_t attempt = 0; attempt < 128; ++attempt) {
    stats::rng gen = stats::rng::stream(seed, attempt);

    std::vector<std::pair<node_id, node_id>> edges;
    edges.reserve(static_cast<std::size_t>(n) * degree / 2);
    std::fill(fill.begin(), fill.end(), 0u);
    const auto put = [&](node_id u, node_id v) {
      if (u == v || linked(u, v)) return false;
      nbrs(u)[fill[u]++] = v;
      nbrs(v)[fill[v]++] = u;
      edges.emplace_back(u, v);
      return true;
    };
    for (std::uint32_t off = 1; off <= degree / 2; ++off)
      for (node_id u = 0; u < n; ++u)
        put(u, static_cast<node_id>((u + off) % n));
    if (degree % 2 == 1)  // n is even here (valid_for: n*d even)
      for (node_id u = 0; u < n / 2; ++u)
        put(u, u + n / 2);

    const std::uint64_t swaps =
        20ull * n * degree;  // well past the chain's mixing regime
    for (std::uint64_t i = 0; i < swaps; ++i) {
      const std::size_t e1 = gen.next_below(edges.size());
      const std::size_t e2 = gen.next_below(edges.size());
      if (e1 == e2) continue;
      auto [a, b] = edges[e1];
      auto [c, d] = edges[e2];
      if (gen.next_below(2) == 1) std::swap(c, d);
      // Rewire (a,b),(c,d) -> (a,c),(b,d) when that keeps the graph simple.
      if (a == c || a == d || b == c || b == d) continue;
      if (linked(a, c) || linked(b, d)) continue;
      relink(a, b, c);
      relink(b, a, d);
      relink(c, d, a);
      relink(d, c, b);
      edges[e1] = {a, c};
      edges[e2] = {b, d};
    }

    out.clear();
    out.reserve(edges.size());
    for (const auto& [u, v] : edges) out.push_back({u, v, 1.0});
    if (edges_connect(n, out)) return;
  }
  ANONPATH_EXPECTS(!"random_regular: no connected swap-randomized graph");
}

void build_tiered_edges(std::uint32_t n, std::uint32_t tiers,
                        std::vector<weighted_edge>& out) {
  const auto tier_of = [&](node_id u) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(u) * tiers) / n);
  };
  for (node_id u = 0; u < n; ++u)
    for (node_id v = u + 1; v < n; ++v) {
      const std::uint32_t tu = tier_of(u);
      const std::uint32_t tv = tier_of(v);
      if (tu + 1 == tv || tv + 1 == tu) out.push_back({u, v, 1.0});
    }
}

void build_trust_edges(std::uint32_t n, double decay,
                       std::vector<weighted_edge>& out) {
  // decay^(d-1) by ring distance d, tabulated once so construction stays
  // O(N^2) instead of O(N^3). valid_for refuses the pairs whose last entry
  // underflows to 0.
  std::vector<double> power(n / 2 + 1, 1.0);
  for (std::size_t d = 2; d < power.size(); ++d)
    power[d] = power[d - 1] * decay;
  out.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (node_id u = 0; u < n; ++u)
    for (node_id v = u + 1; v < n; ++v) {
      const std::uint32_t d = std::min(v - u, n - (v - u));
      out.push_back({u, v, power[d]});
    }
}

}  // namespace

std::vector<weighted_edge> generate_edges(std::uint32_t n,
                                          const topology_config& cfg) {
  ANONPATH_EXPECTS(cfg.valid_for(n));
  std::vector<weighted_edge> out;
  switch (cfg.kind) {
    case topology_kind::complete:
      build_complete_edges(n, out);
      return out;
    case topology_kind::ring:
      build_ring_edges(n, cfg.ring_k, out);
      return out;
    case topology_kind::random_regular:
      build_random_regular_edges(n, cfg.degree, cfg.graph_seed, out);
      return out;
    case topology_kind::tiered:
      build_tiered_edges(n, cfg.tiers, out);
      return out;
    case topology_kind::trust_weighted:
      build_trust_edges(n, cfg.trust_decay, out);
      return out;
  }
  ANONPATH_EXPECTS(!"unknown topology kind");
  return out;
}

std::uint64_t edge_count(std::uint32_t n, const topology_config& cfg) {
  ANONPATH_EXPECTS(cfg.valid_for(n));
  const std::uint64_t nodes = n;
  switch (cfg.kind) {
    case topology_kind::complete:
    case topology_kind::trust_weighted:
      return nodes * (nodes - 1) / 2;
    case topology_kind::ring:
      return nodes * cfg.ring_k;
    case topology_kind::random_regular:
      return nodes * cfg.degree / 2;
    case topology_kind::tiered: {
      // Tier i holds the u with i*n <= u*tiers < (i+1)*n, so it starts at
      // ceil(i*n / tiers).
      const auto start = [&](std::uint64_t i) {
        return (i * nodes + cfg.tiers - 1) / cfg.tiers;
      };
      std::uint64_t edges = 0;
      for (std::uint64_t i = 0; i + 1 < cfg.tiers; ++i)
        edges += (start(i + 1) - start(i)) * (start(i + 2) - start(i + 1));
      return edges;
    }
  }
  ANONPATH_EXPECTS(!"unknown topology kind");
  return 0;
}

topology::topology(std::uint32_t n, topology_config cfg,
                   std::vector<weighted_edge> edges)
    : n_(n), cfg_(cfg), total_(n, 0.0), off_(std::size_t{n} + 1, 0) {
  for (const weighted_edge& e : edges) {
    ANONPATH_EXPECTS(e.u < n_ && e.v < n_);
    ANONPATH_EXPECTS(e.u != e.v);  // no self-loops
    ANONPATH_EXPECTS(e.w > 0.0);
    ++off_[e.u + 1];
    ++off_[e.v + 1];
  }
  for (std::size_t u = 0; u < n_; ++u) off_[u + 1] += off_[u];
  edge_count_ = edges.size();

  // Scatter both arcs of every edge into their sources' segments, in
  // edge-list order. Shifted down one slot, off_[u + 1] holds u's start and
  // serves as u's fill cursor; once filled it holds u's end, which is
  // u + 1's start, so the offsets come out right with no cursor array.
  nbr_.resize(off_[n_]);
  w_.resize(off_[n_]);
  for (std::size_t u = n_; u > 0; --u) off_[u] = off_[u - 1];
  for (const weighted_edge& e : edges) {
    const std::uint64_t a = off_[e.u + 1]++;
    nbr_[a] = e.v;
    w_[a] = e.w;
    const std::uint64_t b = off_[e.v + 1]++;
    nbr_[b] = e.u;
    w_[b] = e.w;
  }
  std::vector<weighted_edge>().swap(edges);  // free before cum_ exists

  // The generators emit most segments ascending already; the rest (the
  // wrap-around nodes of a ring, every node of a random regular graph)
  // are sorted by neighbour id, carrying weights along. Ids are distinct
  // in a simple graph, so the order is unique.
  std::vector<std::pair<node_id, double>> scratch;
  cum_.resize(nbr_.size());
  min_degree_ = ~0u;
  max_degree_ = 0;
  for (node_id u = 0; u < n_; ++u) {
    const std::uint64_t b = off_[u];
    const std::uint64_t e = off_[u + 1];
    node_id* ids = nbr_.data() + b;
    double* w = w_.data() + b;
    const auto deg = static_cast<std::uint32_t>(e - b);
    if (!std::is_sorted(ids, ids + deg)) {
      scratch.clear();
      for (std::uint32_t i = 0; i < deg; ++i)
        scratch.emplace_back(ids[i], w[i]);
      std::sort(scratch.begin(), scratch.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      for (std::uint32_t i = 0; i < deg; ++i)
        std::tie(ids[i], w[i]) = scratch[i];
    }
    double acc = 0.0;
    for (std::uint32_t i = 0; i < deg; ++i) {
      ANONPATH_EXPECTS(i == 0 || ids[i] != ids[i - 1]);  // simple
      acc += w[i];
      cum_[b + i] = acc;
      // Uniform weights within every node's list are what let the sampler
      // take the single next_below draw.
      if (uniform_weights_ && w[i] != w[0]) uniform_weights_ = false;
    }
    total_[u] = acc;
    min_degree_ = std::min(min_degree_, deg);
    max_degree_ = std::max(max_degree_, deg);
  }
  ANONPATH_ENSURES(min_degree_ >= 1);
  ANONPATH_ENSURES(connected());
}

bool topology::connected() const {
  std::vector<bool> seen(n_, false);
  std::vector<node_id> stack{0};
  seen[0] = true;
  std::uint32_t reached = 1;
  while (!stack.empty()) {
    const node_id u = stack.back();
    stack.pop_back();
    const neighbor_view a = adjacency(u);
    for (std::uint32_t i = 0; i < a.size; ++i) {
      const node_id v = a.ids[i];
      if (!seen[v]) {
        seen[v] = true;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  return reached == n_;
}

topology topology::complete(std::uint32_t node_count) {
  return make(node_count, topology_config{});
}

topology topology::ring(std::uint32_t node_count, std::uint32_t k) {
  topology_config cfg;
  cfg.kind = topology_kind::ring;
  cfg.ring_k = k;
  return make(node_count, cfg);
}

topology topology::random_regular(std::uint32_t node_count,
                                  std::uint32_t degree, std::uint64_t seed) {
  topology_config cfg;
  cfg.kind = topology_kind::random_regular;
  cfg.degree = degree;
  cfg.graph_seed = seed;
  return make(node_count, cfg);
}

topology topology::tiered(std::uint32_t node_count, std::uint32_t tiers) {
  topology_config cfg;
  cfg.kind = topology_kind::tiered;
  cfg.tiers = tiers;
  return make(node_count, cfg);
}

topology topology::trust_weighted(std::uint32_t node_count, double decay) {
  topology_config cfg;
  cfg.kind = topology_kind::trust_weighted;
  cfg.trust_decay = decay;
  return make(node_count, cfg);
}

topology topology::make(std::uint32_t node_count, const topology_config& cfg) {
  return topology(node_count, cfg, generate_edges(node_count, cfg));
}

neighbor_view topology::adjacency(node_id u) const {
  ANONPATH_EXPECTS(u < n_);
  const std::uint64_t b = off_[u];
  return {nbr_.data() + b, w_.data() + b, cum_.data() + b,
          static_cast<std::uint32_t>(off_[u + 1] - b)};
}

std::uint32_t topology::degree(node_id u) const {
  ANONPATH_EXPECTS(u < n_);
  return static_cast<std::uint32_t>(off_[u + 1] - off_[u]);
}

bool topology::has_edge(node_id u, node_id v) const {
  ANONPATH_EXPECTS(u < n_ && v < n_);
  const neighbor_view a = adjacency(u);
  return std::binary_search(a.ids, a.ids + a.size, v);
}

double topology::edge_weight(node_id u, node_id v) const {
  ANONPATH_EXPECTS(u < n_ && v < n_);
  const neighbor_view a = adjacency(u);
  const auto it = std::lower_bound(a.ids, a.ids + a.size, v);
  if (it == a.ids + a.size || *it != v) return 0.0;
  return a.weights[it - a.ids];
}

double topology::total_weight(node_id u) const {
  ANONPATH_EXPECTS(u < n_);
  return total_[u];
}

double topology::transition_prob(node_id u, node_id v) const {
  return edge_weight(u, v) / total_[u];
}

node_id topology::sample_neighbor(node_id u, stats::rng& gen) const {
  ANONPATH_EXPECTS(u < n_);
  const neighbor_view a = adjacency(u);
  if (uniform_weights_)
    return a.ids[static_cast<std::size_t>(gen.next_below(a.size))];
  const double x = gen.next_double() * total_[u];
  auto idx = static_cast<std::size_t>(
      std::upper_bound(a.cum, a.cum + a.size, x) - a.cum);
  if (idx >= a.size) idx = a.size - 1;  // x == total after rounding
  return a.ids[idx];
}

}  // namespace anonpath::net
