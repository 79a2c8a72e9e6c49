// Path representation shared by routing, centrality and the heuristics.
//
// A path is an ordered edge list plus its start node; node order is derived.
// Capacity(p) = min edge capacity (paper Section IV-B); capacity and length
// read caller-supplied per-edge arrays because ISP's residual capacities and
// metric are dynamic (IV-D).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace netrec::graph {

struct Path {
  NodeId start = kInvalidNode;
  std::vector<EdgeId> edges;

  bool empty() const { return edges.empty(); }
  std::size_t hop_count() const { return edges.size(); }

  /// End node; equals start for an empty path.
  NodeId end(const Graph& g) const;

  /// Ordered node sequence start..end (hop_count()+1 entries).
  std::vector<NodeId> nodes(const Graph& g) const;

  /// Bottleneck of `edge_capacity` (indexed by edge id) over the path —
  /// pass Graph::edge_capacities() for static capacities, or a residual
  /// array during routing.  Empty path -> +inf.
  double capacity(const std::vector<double>& edge_capacity) const;

  /// Sum of `edge_length` (indexed by edge id) over the path.
  double length(const std::vector<double>& edge_length) const;

  /// True if no node repeats (the paper considers acyclic paths only).
  bool is_simple(const Graph& g) const;

  /// True if the path actually connects `from` to `to` in g.
  bool connects(const Graph& g, NodeId from, NodeId to) const;

  /// Human-readable "a - b - c" node chain for logs and examples.
  std::string to_string(const Graph& g) const;
};

}  // namespace netrec::graph
