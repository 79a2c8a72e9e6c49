// Test-only reference solver for the path-based multi-commodity master
// (mcf/path_lp.hpp): the one-shot column-generation engine.
//
// Every solve builds its master from scratch — seed columns, eager or lazy
// capacity rows, a cold simplex restart whenever lazy rows are added — and
// prices with the callback oracle::dijkstra under a residual edge filter,
// so its pricing shares no kernel with src/graph.  mcf::PathLpSession, the
// library's one path-LP engine, is checked against it:
// tests/test_path_lp.cpp pins the two bit-identical on the session's
// mutation and split-probe scenarios and within 1e-9 (relative) on seeded
// random instances.
//
// Built into the static library `netrec_oracle`, only with the tests; no
// product code links it.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "mcf/path_lp.hpp"
#include "mcf/types.hpp"

namespace netrec::oracle {

class PathLp {
 public:
  /// Seeds, capacity rows and pricing all run on `view` (not owned; must
  /// outlive solve()).  The routable network is the view's edges with
  /// capacity > 1e-9 — cached views keep drained edges as arcs, and
  /// solve() skips them.  The view's lengths must be the unit/hop metric
  /// (the default ViewConfig).
  PathLp(const graph::GraphView& view, std::vector<mcf::Demand> demands,
         mcf::PathLpOptions options = {});

  /// Configures the objective; call exactly one before solve().
  void set_max_routed();
  void set_min_cost(graph::EdgeWeight objective_edge_cost);
  void set_max_split(int split_demand_index, graph::NodeId via);

  /// Adds an optimal-face pinning row (kMinCost mode only).
  void add_cost_bound(mcf::PathCostBound bound);

  mcf::PathLpResult solve();

 private:
  struct ColumnInfo {
    int demand_index;  ///< internal demand index (includes split halves)
    graph::Path path;
    int var = -1;
  };

  const graph::Graph& g_;
  const graph::GraphView& view_;
  std::vector<mcf::Demand> user_demands_;
  mcf::PathLpOptions opt_;

  mcf::PathLpMode mode_ = mcf::PathLpMode::kMaxRouted;
  bool mode_set_ = false;
  graph::EdgeWeight objective_edge_cost_;
  int split_demand_ = -1;
  graph::NodeId split_via_ = graph::kInvalidNode;
  std::vector<mcf::PathCostBound> cost_bounds_;
};

}  // namespace netrec::oracle
