// plan_regular: graph construction and route planning at scale, the
// library equivalent of
//   anonpath plan --csr --topology regular:4 --n 20000 --components
//     --routing kpaths:3 --routes 32
// It builds a seeded random 4-regular graph in CSR storage, labels its
// connected components, grows one Dijkstra tree from a seeded source and
// plans Yen k-shortest routes from it to seeded targets 6 hops away. No
// other workload reaches the net layer at this size (study_grid graphs
// have at most 120 nodes).

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <optional>

#include "perfbench/harness.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/stats/rng.hpp"

namespace perfbench {
namespace {

using namespace anonpath;

constexpr std::uint32_t node_count = 20000;
constexpr std::uint32_t degree = 4;
constexpr std::uint32_t route_count = 32;
constexpr std::uint32_t k_paths = 3;
constexpr double target_hops = 6;
constexpr std::uint32_t warmup_nodes = 2000;

net::topology_config regular_config(std::uint64_t graph_seed) {
  net::topology_config cfg;
  cfg.kind = net::topology_kind::random_regular;
  cfg.degree = degree;
  cfg.graph_seed = graph_seed;
  return cfg;
}

bool path_is_valid(const net::topology& g, const net::planned_path& p,
                   node_id s, node_id t) {
  if (p.nodes.size() < 2 || p.nodes.front() != s || p.nodes.back() != t)
    return false;
  std::vector<node_id> sorted = p.nodes;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;  // not simple
  double cost = 0.0;
  for (std::size_t i = 1; i < p.nodes.size(); ++i) {
    if (!g.has_edge(p.nodes[i - 1], p.nodes[i])) return false;
    cost += net::edge_cost(g.edge_weight(p.nodes[i - 1], p.nodes[i]));
  }
  return std::abs(cost - p.cost) <= 1e-9 * std::max(1.0, cost);
}

class plan_regular final : public bench_workload {
 public:
  explicit plan_regular(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    config_ = regular_config(stats::rng::stream(seed_, 1).next_u64());
    source_ = static_cast<node_id>(
        stats::rng::stream(seed_, 2).next_below(node_count));
    // Warm-up: the same pipeline on a tenth-size graph.
    const net::topology warm =
        net::topology::make_csr(warmup_nodes, config_);
    const net::shortest_path_tree tree = net::dijkstra(warm, 0);
    const std::vector<net::planned_path> paths =
        net::k_shortest_paths(warm, 0, warmup_nodes - 1, k_paths);
    if (paths.empty() || net::connected_components(warm).empty() ||
        tree.dist.size() != warmup_nodes)
      throw std::runtime_error("plan_regular warm-up failed");
  }

  void solve(obs::tracer* tracer) override {
    counters_ = net::plan_counters{};
    graph_.reset();
    {
      const obs::span s(tracer, "net.build");
      graph_.emplace(net::topology::make_csr(node_count, config_));
    }
    {
      const obs::span s(tracer, "net.components");
      components_ = net::connected_components(*graph_);
    }
    {
      const obs::span s(tracer, "net.dijkstra");
      tree_ = net::dijkstra(*graph_, source_, &counters_);
    }
    // Seeded targets exactly target_hops from the source: Yen's work grows
    // about 3x per hop of distance, so uniformly drawn targets would leave
    // most of it to where the seed drops them.
    stats::rng gen = stats::rng::stream(seed_, 3);
    targets_.clear();
    while (targets_.size() < route_count) {
      const auto t = static_cast<node_id>(gen.next_below(node_count));
      if (tree_.dist[t] == target_hops &&
          std::find(targets_.begin(), targets_.end(), t) == targets_.end())
        targets_.push_back(t);
    }
    routes_.clear();
    for (node_id t : targets_) {
      const obs::span s(tracer, "net.yen");
      routes_.push_back(
          net::k_shortest_paths(*graph_, source_, t, k_paths, &counters_));
    }
  }

  void check(checks& c) override {
    const std::uint32_t components =
        components_.empty()
            ? 0
            : *std::max_element(components_.begin(), components_.end()) + 1;
    c.expect(components == 1, "plan_regular: the graph is one component");
    c.expect(graph_->edge_count() ==
                 static_cast<std::uint64_t>(node_count) * degree / 2,
             "plan_regular: the graph has N*d/2 edges");
    std::vector<double> costs;
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      const node_id t = targets_[i];
      const std::vector<net::planned_path>& paths = routes_[i];
      c.expect(paths.size() == k_paths, "plan_regular: Yen finds k paths");
      if (paths.empty()) continue;
      c.expect(paths.front().cost == tree_.dist[t],
               "plan_regular: the first Yen cost equals the Dijkstra "
               "distance");
      bool ordered = true, valid = true;
      for (std::size_t j = 0; j < paths.size(); ++j) {
        if (j > 0 && paths[j].cost < paths[j - 1].cost) ordered = false;
        if (!path_is_valid(*graph_, paths[j], source_, t)) valid = false;
        costs.push_back(paths[j].cost);
      }
      c.expect(ordered, "plan_regular: Yen costs never decrease");
      c.expect(valid,
               "plan_regular: Yen paths are simple, connected and priced "
               "right");
    }
    if (first_costs_.empty()) first_costs_ = costs;
    c.expect(costs == first_costs_,
             "plan_regular: repeated solves give identical routes");
  }

  [[nodiscard]] double work_units() const override { return node_count; }
  [[nodiscard]] const char* work_unit_name() const override {
    return "graph nodes";
  }

  void layer_metrics(const obs::tracer& tracer, metric_map& out) override {
    const double build_s = span_total_s(tracer, "net.build");
    out["net.build_s"] = {build_s, "s"};
    out["net.edges_per_s"] = {
        static_cast<double>(graph_->edge_count()) / build_s, "1/s"};
    out["net.components_s"] = {span_total_s(tracer, "net.components"), "s"};
    out["net.dijkstra_s"] = {span_total_s(tracer, "net.dijkstra"), "s"};
    out["net.yen_s"] = {span_total_s(tracer, "net.yen"), "s"};
    out["net.nodes_settled"] = {static_cast<double>(counters_.nodes_settled),
                                "count"};
    out["net.edges_scanned"] = {static_cast<double>(counters_.edges_scanned),
                                "count"};
    out["net.dijkstra_runs"] = {static_cast<double>(counters_.dijkstra_runs),
                                "count"};
    out["net.yen_spur_searches"] = {
        static_cast<double>(counters_.yen_spur_searches), "count"};
  }

 private:
  std::uint64_t seed_;
  net::topology_config config_;
  node_id source_ = 0;
  std::vector<node_id> targets_;
  std::optional<net::topology> graph_;
  std::vector<std::uint32_t> components_;
  net::shortest_path_tree tree_;
  std::vector<std::vector<net::planned_path>> routes_;
  net::plan_counters counters_;
  std::vector<double> first_costs_;
};

}  // namespace

std::unique_ptr<bench_workload> make_plan_regular(std::uint64_t seed) {
  return std::make_unique<plan_regular>(seed);
}

}  // namespace perfbench
