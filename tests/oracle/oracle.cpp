#include "oracle/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <stack>
#include <stdexcept>
#include <utility>

namespace netrec::oracle {

using graph::EdgeId;
using graph::NodeId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFlowEps = 1e-9;

/// Dinic residual network; arc i and arc i^1 are mutual reverses.
struct Dinic {
  struct Arc {
    int to;
    double cap;
  };

  explicit Dinic(std::size_t n) : head(n) {}

  void add_undirected(int u, int v, double cap) {
    head[static_cast<std::size_t>(u)].push_back(static_cast<int>(arcs.size()));
    arcs.push_back({v, cap});
    head[static_cast<std::size_t>(v)].push_back(static_cast<int>(arcs.size()));
    arcs.push_back({u, cap});
  }

  bool build_levels(int s, int t) {
    level.assign(head.size(), -1);
    level[static_cast<std::size_t>(s)] = 0;
    std::deque<int> queue{s};
    while (!queue.empty()) {
      const int at = queue.front();
      queue.pop_front();
      for (int a : head[static_cast<std::size_t>(at)]) {
        const Arc& arc = arcs[static_cast<std::size_t>(a)];
        if (arc.cap <= kFlowEps) continue;
        if (level[static_cast<std::size_t>(arc.to)] != -1) continue;
        level[static_cast<std::size_t>(arc.to)] =
            level[static_cast<std::size_t>(at)] + 1;
        queue.push_back(arc.to);
      }
    }
    return level[static_cast<std::size_t>(t)] != -1;
  }

  double push(int at, int t, double limit) {
    if (at == t) return limit;
    double pushed = 0.0;
    auto& cursor = iter[static_cast<std::size_t>(at)];
    for (; cursor < head[static_cast<std::size_t>(at)].size(); ++cursor) {
      const int a = head[static_cast<std::size_t>(at)][cursor];
      Arc& arc = arcs[static_cast<std::size_t>(a)];
      if (arc.cap <= kFlowEps) continue;
      if (level[static_cast<std::size_t>(arc.to)] !=
          level[static_cast<std::size_t>(at)] + 1) {
        continue;
      }
      const double got = push(arc.to, t, std::min(limit - pushed, arc.cap));
      if (got > 0.0) {
        arc.cap -= got;
        arcs[static_cast<std::size_t>(a ^ 1)].cap += got;
        pushed += got;
        if (pushed >= limit - kFlowEps) return pushed;
      }
    }
    return pushed;
  }

  double run(int s, int t) {
    double total = 0.0;
    while (build_levels(s, t)) {
      iter.assign(head.size(), 0);
      double pushed = push(s, t, kInf);
      while (pushed > kFlowEps) {
        total += pushed;
        pushed = push(s, t, kInf);
      }
    }
    return total;
  }

  std::vector<std::vector<int>> head;
  std::vector<Arc> arcs;
  std::vector<int> level;
  std::vector<std::size_t> iter;
};

}  // namespace

graph::ShortestPathTree dijkstra(const graph::Graph& g, NodeId source,
                                 const graph::EdgeWeight& length,
                                 const graph::EdgeFilter& edge_ok,
                                 const graph::NodeFilter& node_ok) {
  g.check_node(source);
  graph::ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(g.num_nodes(), kInf);
  tree.parent_edge.assign(g.num_nodes(), graph::kInvalidEdge);
  tree.distance[static_cast<std::size_t>(source)] = 0.0;

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [dist, at] = heap.top();
    heap.pop();
    if (dist > tree.distance[static_cast<std::size_t>(at)]) continue;
    for (EdgeId e : g.incident_edges(at)) {
      if (edge_ok && !edge_ok(e)) continue;
      const NodeId to = g.other_endpoint(e, at);
      if (node_ok && !node_ok(to)) continue;
      const double w = length(e);
      if (!(w >= 0.0)) {
        throw std::invalid_argument("dijkstra: negative or NaN edge length");
      }
      const double candidate = dist + w;
      if (candidate < tree.distance[static_cast<std::size_t>(to)]) {
        tree.distance[static_cast<std::size_t>(to)] = candidate;
        tree.parent_edge[static_cast<std::size_t>(to)] = e;
        heap.emplace(candidate, to);
      }
    }
  }
  return tree;
}

std::optional<graph::Path> widest_path(const graph::Graph& g, NodeId source,
                                       NodeId target,
                                       const graph::EdgeWeight& capacity,
                                       const graph::EdgeFilter& edge_ok,
                                       const graph::NodeFilter& node_ok) {
  g.check_node(source);
  g.check_node(target);
  std::vector<double> width(g.num_nodes(), 0.0);
  std::vector<EdgeId> parent(g.num_nodes(), graph::kInvalidEdge);
  width[static_cast<std::size_t>(source)] = kInf;

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item> heap;  // max-heap on bottleneck
  heap.emplace(kInf, source);
  while (!heap.empty()) {
    const auto [w, at] = heap.top();
    heap.pop();
    if (w < width[static_cast<std::size_t>(at)]) continue;
    if (at == target) break;
    for (EdgeId e : g.incident_edges(at)) {
      if (edge_ok && !edge_ok(e)) continue;
      const NodeId to = g.other_endpoint(e, at);
      if (node_ok && !node_ok(to)) continue;
      const double cap = capacity(e);
      if (!(cap >= 0.0)) {
        throw std::invalid_argument(
            "widest_path: negative or NaN edge capacity");
      }
      const double bottleneck = std::min(w, cap);
      if (bottleneck > width[static_cast<std::size_t>(to)]) {
        width[static_cast<std::size_t>(to)] = bottleneck;
        parent[static_cast<std::size_t>(to)] = e;
        heap.emplace(bottleneck, to);
      }
    }
  }
  if (width[static_cast<std::size_t>(target)] <= 0.0 && source != target) {
    return std::nullopt;
  }
  graph::Path path;
  path.start = source;
  std::vector<EdgeId> reversed;
  NodeId at = target;
  while (at != source) {
    const EdgeId e = parent[static_cast<std::size_t>(at)];
    if (e == graph::kInvalidEdge) return std::nullopt;
    reversed.push_back(e);
    at = g.other_endpoint(e, at);
  }
  path.edges.assign(reversed.rbegin(), reversed.rend());
  return path;
}

std::vector<double> betweenness_centrality(const graph::Graph& g,
                                           const graph::EdgeWeight& length,
                                           const graph::EdgeFilter& edge_ok,
                                           const graph::NodeFilter& node_ok) {
  const std::size_t n = g.num_nodes();
  std::vector<double> centrality(n, 0.0);
  std::vector<double> dist(n);
  std::vector<double> sigma(n);  // number of shortest paths
  std::vector<double> delta(n);  // dependency accumulator
  std::vector<std::vector<NodeId>> predecessors(n);

  for (std::size_t s = 0; s < n; ++s) {
    const auto source = static_cast<NodeId>(s);
    if (node_ok && !node_ok(source)) continue;
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (auto& p : predecessors) p.clear();

    dist[s] = 0.0;
    sigma[s] = 1.0;
    using Item = std::pair<double, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0.0, source);
    std::stack<NodeId> order;  // nodes in non-decreasing distance
    std::vector<char> settled(n, 0);

    while (!heap.empty()) {
      const auto [d, at] = heap.top();
      heap.pop();
      if (settled[static_cast<std::size_t>(at)]) continue;
      settled[static_cast<std::size_t>(at)] = 1;
      order.push(at);
      for (EdgeId e : g.incident_edges(at)) {
        if (edge_ok && !edge_ok(e)) continue;
        const NodeId to = g.other_endpoint(e, at);
        if (node_ok && !node_ok(to)) continue;
        const double candidate = d + length(e);
        const auto ti = static_cast<std::size_t>(to);
        if (candidate < dist[ti] - 1e-12) {
          dist[ti] = candidate;
          sigma[ti] = sigma[static_cast<std::size_t>(at)];
          predecessors[ti].assign(1, at);
          heap.emplace(candidate, to);
        } else if (std::abs(candidate - dist[ti]) <= 1e-12) {
          sigma[ti] += sigma[static_cast<std::size_t>(at)];
          predecessors[ti].push_back(at);
        }
      }
    }

    while (!order.empty()) {
      const NodeId w = order.top();
      order.pop();
      const auto wi = static_cast<std::size_t>(w);
      for (NodeId v : predecessors[wi]) {
        const auto vi = static_cast<std::size_t>(v);
        delta[vi] += sigma[vi] / sigma[wi] * (1.0 + delta[wi]);
      }
      if (w != source) centrality[wi] += delta[wi];
    }
  }
  // Undirected graph: each pair counted from both endpoints.
  for (double& c : centrality) c /= 2.0;
  return centrality;
}

graph::MaxflowResult max_flow(const graph::Graph& g, NodeId source,
                              NodeId sink, const graph::EdgeWeight& capacity,
                              const graph::EdgeFilter& edge_ok,
                              const graph::NodeFilter& node_ok) {
  g.check_node(source);
  g.check_node(sink);
  graph::MaxflowResult result;
  result.edge_flow.assign(g.num_edges(), 0.0);
  if (source == sink) return result;
  if (node_ok && (!node_ok(source) || !node_ok(sink))) return result;

  // Undirected edge = two arcs with the full capacity, in edge-id order.
  Dinic net(g.num_nodes());
  std::vector<int> first_arc(g.num_edges(), -1);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<EdgeId>(e);
    if (edge_ok && !edge_ok(id)) continue;
    const auto [eu, ev] = g.edge_endpoints(id);
    if (node_ok && (!node_ok(eu) || !node_ok(ev))) continue;
    const double cap = capacity(id);
    if (cap <= kFlowEps) continue;
    first_arc[e] = static_cast<int>(net.arcs.size());
    net.add_undirected(eu, ev, cap);
  }
  result.value = net.run(source, sink);

  // Net flow f in the u->v direction leaves residuals cap0 - f (forward)
  // and cap0 + f (backward), so f = (backward - forward) / 2.
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (first_arc[e] < 0) continue;
    const auto a = static_cast<std::size_t>(first_arc[e]);
    result.edge_flow[e] = (net.arcs[a + 1].cap - net.arcs[a].cap) / 2.0;
  }
  return result;
}

}  // namespace netrec::oracle
