// Dijkstra shortest paths with pluggable (dynamic) edge lengths.
//
// ISP's path metric (Section IV-D) changes every iteration — repaired
// elements become "short", pruned capacity raises lengths — so lengths are
// flattened into a GraphView per round (or passed as a per-edge-id array)
// rather than stored on the graph.  The same routine also serves column-
// generation pricing in the MCF solver (lengths = simplex duals).
//
// Every entry point traverses a flat CSR snapshot with no per-edge
// indirection.  The test-only oracle library (tests/oracle) holds
// independent callback implementations the view path is diffed against.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/view.hpp"

namespace netrec::graph {

struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<double> distance;    ///< +inf when unreachable
  std::vector<EdgeId> parent_edge; ///< kInvalidEdge at source/unreachable

  bool reached(NodeId node) const;

  /// Reconstructs source -> target; std::nullopt when unreachable.
  std::optional<Path> path_to(const Graph& g, NodeId target) const;
};

/// Dijkstra from `source` over the view, using the view's edge lengths.
/// Lengths must be >= 0 and not NaN for every traversed edge
/// (std::invalid_argument at first encounter).
ShortestPathTree dijkstra(const GraphView& view, NodeId source);

/// Dijkstra under caller-supplied per-edge-id lengths (indexed by original
/// edge id; the pricing loop refreshes them from the master duals every
/// round without rebuilding the view), skipping edges whose `edge_residual`
/// entry is <= 1e-9 (a cached view may keep zero-capacity edges as arcs),
/// stopped once `target` settles (exact distance/path for the target, see
/// dijkstra_residual_to) — per-demand pricing in PathLpSession reads only
/// the target's label.
ShortestPathTree dijkstra_to(const GraphView& view, NodeId source,
                             NodeId target,
                             const std::vector<double>& edge_length,
                             const std::vector<double>& edge_residual);

/// Dijkstra under the view's lengths, skipping edges whose entry in
/// `edge_residual` is <= 1e-9 — the residual-capacity loops of greedy
/// routing and successive shortest paths.
ShortestPathTree dijkstra_residual(const GraphView& view, NodeId source,
                                   const std::vector<double>& edge_residual);

/// dijkstra_residual that stops as soon as `target` is settled.  Every node
/// settled before the stop — in particular the whole source->target parent
/// chain — carries exactly the distances and parents of the full tree
/// (Dijkstra settles in a deterministic total order), so path_to(target) is
/// bit-identical to the unbounded call; entries for unsettled nodes are
/// not meaningful.  The single-pair lookups of ISP's session fast path use
/// this to skip the tail of the settle order.
ShortestPathTree dijkstra_residual_to(const GraphView& view, NodeId source,
                                      NodeId target,
                                      const std::vector<double>& edge_residual);

/// Shortest path source -> target over the view, or nullopt.
std::optional<Path> shortest_path(const GraphView& view, NodeId source,
                                  NodeId target);

/// Widest (maximum-bottleneck) path under the view's capacities.
/// Capacities must be >= 0 and not NaN (std::invalid_argument otherwise).
std::optional<Path> widest_path(const GraphView& view, NodeId source,
                                NodeId target);

}  // namespace netrec::graph
