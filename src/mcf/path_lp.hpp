// Path-based multi-commodity LP with column generation.
//
// All of the paper's flow LPs are instances of one master problem over path
// variables x_p >= 0:
//
//   kMaxRouted  max  sum x_p            (routability test, eq. 2, and the
//               s.t. sum_{p in h} x_p <= d_h        demand-loss referee)
//
//   kMinCost    min  sum cost(p) x_p    (multi-commodity relaxation, eq. 8)
//               s.t. sum_{p in h} x_p  = d_h
//
//   kMaxSplit   max  dx                 (ISP split amount, Section IV-C)
//               s.t. sum_{p in h*} x_p + dx = d_{h*}
//                    sum_{p in (s,v)} x_p - dx = 0
//                    sum_{p in (v,t)} x_p - dx = 0
//                    sum_{p in h} x_p = d_h             (other demands)
//
// all subject to edge capacities sum_{p ni e} x_p <= c_e.  Columns (paths)
// are priced in by Dijkstra on the reduced-cost edge weights, which stay
// nonnegative by LP duality, so pricing is exact and the converged master is
// a true optimum over *all* paths, not just an enumerated pool.  Capacity
// rows can be added lazily (violated-only), which keeps the master tiny on
// large sparse graphs such as the CAIDA topology.
//
// Equality-row modes carry per-demand shortfall variables with a big-M
// penalty so the master is always feasible and column generation can start
// from an empty pool.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "mcf/types.hpp"

namespace netrec::mcf {

enum class PathLpMode { kMaxRouted, kMinCost, kMaxSplit };

struct PathLpOptions {
  double tolerance = 1e-7;
  /// Safety cap on column-generation rounds (each adds >=1 column or row).
  std::size_t max_rounds = 2000;
  /// Edge count at or below which all capacity rows are created eagerly.
  std::size_t eager_capacity_threshold = 160;
  /// Penalty cost for shortfall variables in equality modes.
  double big_m = 1e6;
  /// Initial paths seeded per demand before generation starts.
  std::size_t seed_paths_per_demand = 4;
};

/// Extra row  sum_p (sum_{e in p} edge_cost(e)) x_p <= rhs  over all path
/// columns; used to pin the eq. (8) objective while exploring its optimal
/// face for the MCB/MCW band.
struct PathCostBound {
  graph::EdgeWeight edge_cost;
  double rhs = 0.0;
};

struct PathLpResult {
  /// True when column generation converged to a proven LP optimum.
  bool converged = false;
  /// Mode-specific optimum: total routed (kMaxRouted), total path cost
  /// (kMinCost), or the split amount dx (kMaxSplit).
  double objective = 0.0;
  RoutingResult routing;
  /// Equality modes: per-demand unmet amount (all ~0 iff routable).
  std::vector<double> shortfall;
};

class PathLp {
 public:
  /// Seeds, capacity rows and pricing all run on `view` (not owned; must
  /// outlive solve()).  The view restricts the network (typically to
  /// working-or-repaired elements, or the full graph with residual
  /// capacities for ISP's invariant checks) and supplies the capacities.
  /// The routable network is the view's edges with capacity > 1e-9 —
  /// cached views keep drained edges as arcs, and solve() skips them.  The
  /// view's lengths must be the unit/hop metric (the default ViewConfig).
  PathLp(const graph::GraphView& view, std::vector<Demand> demands,
         PathLpOptions options = {});

  /// Configures the objective; call exactly one before solve().
  void set_max_routed();
  void set_min_cost(graph::EdgeWeight objective_edge_cost);
  void set_max_split(int split_demand_index, graph::NodeId via);

  /// Adds an optimal-face pinning row (kMinCost mode only).
  void add_cost_bound(PathCostBound bound);

  PathLpResult solve();

 private:
  struct ColumnInfo {
    int demand_index;  ///< internal demand index (includes split halves)
    graph::Path path;
    int var = -1;
  };

  const graph::Graph& g_;
  const graph::GraphView& view_;
  std::vector<Demand> user_demands_;
  PathLpOptions opt_;

  PathLpMode mode_ = PathLpMode::kMaxRouted;
  bool mode_set_ = false;
  graph::EdgeWeight objective_edge_cost_;
  int split_demand_ = -1;
  graph::NodeId split_via_ = graph::kInvalidNode;
  std::vector<PathCostBound> cost_bounds_;
};

}  // namespace netrec::mcf
