#include "mcf/broken_usage.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/view.hpp"
#include "mcf/path_lp_session.hpp"

namespace netrec::mcf {

namespace {

/// Eq. (8) edge cost: the paper weights flow only by broken-*edge* repair
/// cost (k^e_ij per unit of flow); broken nodes are not priced by the
/// relaxation, which is part of why its optimal face is so wide.
graph::EdgeWeight broken_cost_view(const graph::Graph& g) {
  return [&g](graph::EdgeId e) {
    return g.edge_broken(e) ? g.edge_repair_cost(e) : 0.0;
  };
}

}  // namespace

BrokenUsageResult min_broken_usage(const graph::Graph& g,
                                   const std::vector<Demand>& demands,
                                   const PathLpOptions& options) {
  PathLpSession lp(g, PathLpMode::kMinCost, options);
  lp.set_min_cost_objective(broken_cost_view(g));
  PathLpResult r = lp.solve(graph::GraphView::build(g), demand_specs(demands));
  BrokenUsageResult result;
  result.feasible = r.routing.fully_routed;
  result.cost = r.objective;
  result.routing = std::move(r.routing);
  return result;
}

ImpliedRepairs implied_repairs(const graph::Graph& g,
                               const std::vector<PathFlow>& flows,
                               double tol) {
  std::unordered_set<graph::EdgeId> edges;
  std::unordered_set<graph::NodeId> nodes;
  for (const PathFlow& f : flows) {
    if (f.amount <= tol) continue;
    for (graph::NodeId n : f.path.nodes(g)) {
      if (g.node_broken(n)) nodes.insert(n);
    }
    for (graph::EdgeId e : f.path.edges) {
      if (g.edge_broken(e)) edges.insert(e);
    }
  }
  ImpliedRepairs out;
  out.edges.assign(edges.begin(), edges.end());
  out.nodes.assign(nodes.begin(), nodes.end());
  std::sort(out.edges.begin(), out.edges.end());
  std::sort(out.nodes.begin(), out.nodes.end());
  return out;
}

OptimalFaceBand explore_optimal_face(const graph::Graph& g,
                                     const std::vector<Demand>& demands,
                                     std::size_t samples, util::Rng& rng,
                                     const PathLpOptions& options) {
  OptimalFaceBand band;
  const BrokenUsageResult base = min_broken_usage(g, demands, options);
  if (!base.feasible) return band;
  band.feasible = true;

  const auto base_cost = broken_cost_view(g);
  const graph::GraphView view = graph::GraphView::build(g);
  const std::vector<PathLpSession::DemandSpec> specs = demand_specs(demands);
  const std::size_t base_repairs =
      implied_repairs(g, base.routing.flows).total();
  band.samples.push_back(base_repairs);

  for (std::size_t s = 0; s + 1 < std::max<std::size_t>(samples, 1); ++s) {
    // Random positive secondary costs pick different vertices of the pinned
    // face.  Alternate between two regimes: broken edges expensive (flow
    // concentrates on few repaired elements — the MCB direction) and broken
    // edges cheap relative to working ones (flow wanders through many broken
    // elements — the MCW direction).
    const bool concentrate = s % 2 == 0;
    std::vector<double> noise(g.num_edges(), 0.0);
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const auto id = static_cast<graph::EdgeId>(e);
      const bool touches_broken = base_cost(id) > 0.0 ||
                                  g.node_broken(g.edge_u(id)) ||
                                  g.node_broken(g.edge_v(id));
      if (concentrate) {
        noise[e] = touches_broken ? rng.uniform(0.1, 1.0)
                                  : rng.uniform(0.0, 0.01);
      } else {
        noise[e] = touches_broken ? rng.uniform(0.0, 0.05)
                                  : rng.uniform(0.5, 1.0);
      }
    }
    PathLpSession lp(g, PathLpMode::kMinCost, options);
    lp.set_min_cost_objective([&noise](graph::EdgeId e) {
      return noise[static_cast<std::size_t>(e)];
    });
    // Pin eq. (8)'s objective to its optimum (small slack for tolerance).
    lp.add_cost_bound(PathCostBound{base_cost, base.cost + 1e-6});
    const PathLpResult r = lp.solve(view, specs);
    if (!r.routing.fully_routed) continue;
    band.samples.push_back(implied_repairs(g, r.routing.flows).total());
  }

  band.best_repairs =
      *std::min_element(band.samples.begin(), band.samples.end());
  band.worst_repairs =
      *std::max_element(band.samples.begin(), band.samples.end());
  return band;
}

}  // namespace netrec::mcf
