// Routability tests and demand routing (paper Section IV-A).
//
// `route_demands` is the workhorse: it answers "can demand graph H be routed
// over this (sub)graph with these capacities?" and, when the answer is yes,
// produces a witness routing.  A greedy successive-shortest-path pre-pass
// settles most YES instances without touching the LP; the column-generation
// LP (a throwaway PathLpSession, exact) decides the rest.  `max_routed_flow`
// is the referee used to score demand loss for heuristics that cannot
// guarantee full routing (SRT, GRD-COM).
//
// The (sub)graph and its capacities are a GraphView: GraphView::build(g) for
// the full graph with static capacities, GraphView::working(g) for G(n), or
// a ViewConfig carrying the caller's filter (e.g. RepairState::edge_filter)
// or residual capacities.  The routable network is the view's edges with
// capacity > 1e-9 — views cached across residual updates keep drained edges
// as arcs, and every routine below skips them.  The view's lengths must be
// the unit/hop metric (the default ViewConfig).
#pragma once

#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "mcf/path_lp_session.hpp"
#include "mcf/types.hpp"

namespace netrec::mcf {

// --- session-based (persistent hot path) -------------------------------------

/// The paper's routability test (eq. 2) on a persistent PathLpSession
/// (kMaxRouted mode, pooled columns, warm basis).  Unlike the one-shot
/// overloads there are no reachability/greedy prechecks: the warm master
/// re-solve with the pricing early-stop *is* the fast path, and its
/// verdict equals the precheck pipeline's by LP exactness — which the ISP
/// differential harness pins exactly.
bool is_routable(PathLpSession& session, const graph::GraphView& view,
                 const std::vector<PathLpSession::DemandSpec>& demands);

// --- one-shot (view borrowed for the call) -----------------------------------

/// Greedy sufficient check: routes demands one by one (largest first) with
/// successive shortest paths on residual capacities, starting from the
/// view's capacities.  fully_routed == true is a proof of routability;
/// false proves nothing.
RoutingResult greedy_route(const graph::GraphView& view,
                           const std::vector<Demand>& demands);

/// Exact maximum total routed flow (LP optimum over all paths).
RoutingResult max_routed_flow(const graph::GraphView& view,
                              const std::vector<Demand>& demands,
                              const PathLpOptions& options = {});

/// Routability with witness: reachability precheck, greedy, exact fallback.
RoutingResult route_demands(const graph::GraphView& view,
                            const std::vector<Demand>& demands,
                            const PathLpOptions& options = {});

/// The paper's routability test (eq. 2): true iff the whole demand fits.
bool is_routable(const graph::GraphView& view,
                 const std::vector<Demand>& demands,
                 const PathLpOptions& options = {});

}  // namespace netrec::mcf
