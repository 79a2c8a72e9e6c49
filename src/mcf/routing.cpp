#include "mcf/routing.hpp"

#include <algorithm>
#include <numeric>

#include "graph/dijkstra.hpp"
#include "graph/traversal.hpp"
#include "graph/view.hpp"

namespace netrec::mcf {

namespace {
constexpr double kEps = 1e-9;
}

RoutingResult greedy_route(const graph::GraphView& view,
                           const std::vector<Demand>& demands) {
  const graph::Graph& g = view.graph();
  RoutingResult result;
  result.routed.assign(demands.size(), 0.0);

  // One CSR snapshot for the whole greedy pass: hop lengths, the view's
  // capacities, usability narrowed per iteration by the residual array.
  std::vector<double> residual = view.edge_capacities();

  // Largest demands first: they are the hardest to place.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a].amount > demands[b].amount;
  });

  for (std::size_t idx : order) {
    const Demand& d = demands[idx];
    if (d.amount <= kEps || d.source == d.target) {
      result.routed[idx] = d.amount;
      result.total_routed += d.amount;
      continue;
    }
    double remaining = d.amount;
    while (remaining > kEps) {
      auto sp = graph::dijkstra_residual(view, d.source, residual)
                    .path_to(g, d.target);
      if (!sp) break;
      const double cap = sp->capacity(residual);
      if (cap <= kEps) break;
      const double amount = std::min(cap, remaining);
      for (graph::EdgeId e : sp->edges) {
        residual[static_cast<std::size_t>(e)] -= amount;
      }
      PathFlow flow;
      flow.demand_index = static_cast<int>(idx);
      flow.path = std::move(*sp);
      flow.amount = amount;
      result.flows.push_back(std::move(flow));
      remaining -= amount;
    }
    result.routed[idx] = d.amount - remaining;
    result.total_routed += result.routed[idx];
  }
  result.fully_routed =
      result.total_routed >= total_demand(demands) - 1e-6;
  return result;
}

RoutingResult max_routed_flow(const graph::GraphView& view,
                              const std::vector<Demand>& demands,
                              const PathLpOptions& options) {
  PathLpSession lp(view.graph(), PathLpMode::kMaxRouted, options);
  return lp.solve(view, demand_specs(demands)).routing;
}

RoutingResult route_demands(const graph::GraphView& view,
                            const std::vector<Demand>& demands,
                            const PathLpOptions& options) {
  // Necessary condition, fast: endpoints connected over positive-residual
  // arcs of the borrowed view.
  for (const Demand& d : demands) {
    if (d.amount <= kEps || d.source == d.target) continue;
    if (!graph::reachable(view, d.source, d.target,
                          view.edge_capacities())) {
      RoutingResult result;
      result.routed.assign(demands.size(), 0.0);
      result.fully_routed = false;
      return result;
    }
  }
  RoutingResult greedy = greedy_route(view, demands);
  if (greedy.fully_routed) return greedy;
  return max_routed_flow(view, demands, options);
}

bool is_routable(const graph::GraphView& view,
                 const std::vector<Demand>& demands,
                 const PathLpOptions& options) {
  return route_demands(view, demands, options).fully_routed;
}

bool is_routable(PathLpSession& session, const graph::GraphView& view,
                 const std::vector<PathLpSession::DemandSpec>& demands) {
  // Keep the O(V+E) reachability precheck — early ISP iterations probe a
  // working graph where some endpoint pair is simply disconnected, and a
  // BFS answers that for less than a master re-solve.  The greedy pass is
  // dropped: it exists to spare a *cold* LP, but a warm session master
  // answers a YES probe in one re-solve (pricing skipped via the early
  // stop) and a NO probe needs the exact LP anyway.  The verdict is the
  // same boolean on every branch because the LP is exact.
  for (const PathLpSession::DemandSpec& spec : demands) {
    const Demand& d = spec.demand;
    if (d.amount <= kEps || d.source == d.target) continue;
    if (!graph::reachable(view, d.source, d.target,
                          view.edge_capacities())) {
      return false;
    }
  }
  return session.solve_routability(view, demands).routing.fully_routed;
}

}  // namespace netrec::mcf
