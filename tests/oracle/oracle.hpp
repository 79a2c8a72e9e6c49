// Test-only reference kernels ("oracles") for the graph layer.
//
// Straightforward std::function implementations of Dijkstra, widest path,
// Brandes betweenness and Dinic max flow that walk Graph adjacency lists
// directly, with std::priority_queue and per-edge callbacks — no GraphView,
// no CSR snapshot, no shared code with src/graph.  The GraphView kernels in
// the library promise outputs bit-identical to these (same relaxation
// order, same tie-breaks, same floating-point operation stream), and
// tests/test_graph_view.cpp diffs the two with exact equality.
//
// Built as the static library `netrec_oracle`, only with the tests; no
// product code links it.
#pragma once

#include <optional>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/path.hpp"

namespace netrec::oracle {

/// Single-source shortest paths under `length`, restricted by the filters.
/// Negative or NaN lengths throw std::invalid_argument.
graph::ShortestPathTree dijkstra(const graph::Graph& g, graph::NodeId source,
                                 const graph::EdgeWeight& length,
                                 const graph::EdgeFilter& edge_ok = {},
                                 const graph::NodeFilter& node_ok = {});

/// Maximum-bottleneck path source -> target under `capacity`.  Negative or
/// NaN capacities throw std::invalid_argument.
std::optional<graph::Path> widest_path(const graph::Graph& g,
                                       graph::NodeId source,
                                       graph::NodeId target,
                                       const graph::EdgeWeight& capacity,
                                       const graph::EdgeFilter& edge_ok = {},
                                       const graph::NodeFilter& node_ok = {});

/// Weighted Brandes betweenness over the filtered graph (each unordered
/// pair counted once).
std::vector<double> betweenness_centrality(
    const graph::Graph& g, const graph::EdgeWeight& length,
    const graph::EdgeFilter& edge_ok = {},
    const graph::NodeFilter& node_ok = {});

/// Dinic max flow source -> sink with net per-edge flows.
graph::MaxflowResult max_flow(const graph::Graph& g, graph::NodeId source,
                              graph::NodeId sink,
                              const graph::EdgeWeight& capacity,
                              const graph::EdgeFilter& edge_ok = {},
                              const graph::NodeFilter& node_ok = {});

}  // namespace netrec::oracle
