#include "graph/dijkstra.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/heap.hpp"

namespace netrec::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kResidualEps = 1e-9;

using HeapItem = std::pair<double, NodeId>;

/// Reusable heap storage: the allocation survives across the many Dijkstra
/// calls of a betweenness pass or a pricing round.  Pop order is the same
/// as std::priority_queue's — (distance, node) is a total order, so any
/// correct min-priority-queue settles nodes in the identical sequence.
QuadHeap<HeapItem>& heap_storage() {
  thread_local QuadHeap<HeapItem> storage;
  storage.clear();
  return storage;
}

/// Shared CSR Dijkstra core.  `weight_of(ArcId, EdgeId)` and `arc_ok(EdgeId)`
/// are inlined functors, so the instantiations below compile to tight loops
/// over flat arrays.  The `!(w >= 0.0)` guard rejects negative *and* NaN
/// lengths.
template <class WeightOf, class ArcOk>
ShortestPathTree run_dijkstra(const GraphView& view, NodeId source,
                              const WeightOf& weight_of, const ArcOk& arc_ok,
                              NodeId stop_at = kInvalidNode) {
  view.graph().check_node(source);
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(view.num_nodes(), kInf);
  tree.parent_edge.assign(view.num_nodes(), kInvalidEdge);
  tree.distance[static_cast<std::size_t>(source)] = 0.0;

  QuadHeap<HeapItem>& heap = heap_storage();
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [dist, at] = heap.pop();
    if (dist > tree.distance[static_cast<std::size_t>(at)]) continue;
    // Settling `stop_at` fixes its distance and parent chain; the rest of
    // the settle order cannot change them (labels only grow).
    if (at == stop_at) break;
    const ArcId end = view.arcs_end(at);
    for (ArcId a = view.arcs_begin(at); a < end; ++a) {
      const EdgeId e = view.arc_edge(a);
      if (!arc_ok(e)) continue;
      const double w = weight_of(a, e);
      if (!(w >= 0.0)) {
        throw std::invalid_argument("dijkstra: negative or NaN edge length");
      }
      const double candidate = dist + w;
      const NodeId to = view.arc_target(a);
      if (candidate < tree.distance[static_cast<std::size_t>(to)]) {
        tree.distance[static_cast<std::size_t>(to)] = candidate;
        tree.parent_edge[static_cast<std::size_t>(to)] = e;
        heap.push({candidate, to});
      }
    }
  }
  return tree;
}

struct AllArcsOk {
  bool operator()(EdgeId) const { return true; }
};

}  // namespace

bool ShortestPathTree::reached(NodeId node) const {
  return distance[static_cast<std::size_t>(node)] < kInf;
}

std::optional<Path> ShortestPathTree::path_to(const Graph& g,
                                              NodeId target) const {
  if (!reached(target)) return std::nullopt;
  Path path;
  path.start = source;
  std::vector<EdgeId> reversed;
  NodeId at = target;
  while (at != source) {
    const EdgeId e = parent_edge[static_cast<std::size_t>(at)];
    reversed.push_back(e);
    at = g.other_endpoint(e, at);
  }
  path.edges.assign(reversed.rbegin(), reversed.rend());
  return path;
}

// --- view-based ------------------------------------------------------------

ShortestPathTree dijkstra(const GraphView& view, NodeId source) {
  return run_dijkstra(
      view, source,
      [&view](ArcId a, EdgeId) { return view.arc_length(a); }, AllArcsOk{});
}

ShortestPathTree dijkstra_to(const GraphView& view, NodeId source,
                             NodeId target,
                             const std::vector<double>& edge_length,
                             const std::vector<double>& edge_residual) {
  view.graph().check_node(target);
  return run_dijkstra(
      view, source,
      [&edge_length](ArcId, EdgeId e) {
        return edge_length[static_cast<std::size_t>(e)];
      },
      [&edge_residual](EdgeId e) {
        return edge_residual[static_cast<std::size_t>(e)] > kResidualEps;
      },
      target);
}

ShortestPathTree dijkstra_residual(const GraphView& view, NodeId source,
                                   const std::vector<double>& edge_residual) {
  return run_dijkstra(
      view, source,
      [&view](ArcId a, EdgeId) { return view.arc_length(a); },
      [&edge_residual](EdgeId e) {
        return edge_residual[static_cast<std::size_t>(e)] > kResidualEps;
      });
}

ShortestPathTree dijkstra_residual_to(
    const GraphView& view, NodeId source, NodeId target,
    const std::vector<double>& edge_residual) {
  view.graph().check_node(target);
  return run_dijkstra(
      view, source,
      [&view](ArcId a, EdgeId) { return view.arc_length(a); },
      [&edge_residual](EdgeId e) {
        return edge_residual[static_cast<std::size_t>(e)] > kResidualEps;
      },
      target);
}

std::optional<Path> shortest_path(const GraphView& view, NodeId source,
                                  NodeId target) {
  return dijkstra(view, source).path_to(view.graph(), target);
}

std::optional<Path> widest_path(const GraphView& view, NodeId source,
                                NodeId target) {
  const Graph& g = view.graph();
  g.check_node(source);
  g.check_node(target);
  // Max-bottleneck Dijkstra: label = best bottleneck achievable to the node.
  std::vector<double> width(view.num_nodes(), 0.0);
  std::vector<EdgeId> parent(view.num_nodes(), kInvalidEdge);
  width[static_cast<std::size_t>(source)] = kInf;

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item> heap;  // max-heap on bottleneck
  heap.emplace(kInf, source);
  while (!heap.empty()) {
    const auto [w, at] = heap.top();
    heap.pop();
    if (w < width[static_cast<std::size_t>(at)]) continue;
    if (at == target) break;
    const ArcId end = view.arcs_end(at);
    for (ArcId a = view.arcs_begin(at); a < end; ++a) {
      const double cap = view.arc_capacity(a);
      if (!(cap >= 0.0)) {
        throw std::invalid_argument(
            "widest_path: negative or NaN edge capacity");
      }
      const double bottleneck = std::min(w, cap);
      const NodeId to = view.arc_target(a);
      if (bottleneck > width[static_cast<std::size_t>(to)]) {
        width[static_cast<std::size_t>(to)] = bottleneck;
        parent[static_cast<std::size_t>(to)] = view.arc_edge(a);
        heap.emplace(bottleneck, to);
      }
    }
  }
  if (width[static_cast<std::size_t>(target)] <= 0.0 && source != target) {
    return std::nullopt;
  }
  Path path;
  path.start = source;
  std::vector<EdgeId> reversed;
  NodeId at = target;
  while (at != source) {
    const EdgeId e = parent[static_cast<std::size_t>(at)];
    if (e == kInvalidEdge) return std::nullopt;
    reversed.push_back(e);
    at = g.other_endpoint(e, at);
  }
  path.edges.assign(reversed.rbegin(), reversed.rend());
  return path;
}

}  // namespace netrec::graph
