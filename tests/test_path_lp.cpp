// Direct tests of the column-generation master (PathLpSession): mode
// semantics, lazy capacity-row activation, cost-bound rows and convergence
// reporting on throwaway sessions; persistence across mutations, uid churn
// and split probes; and the session against the test-only one-shot
// reference (oracle::PathLp), exactly on the mutation and split-probe
// scenarios and within 1e-9 (relative) on seeded random instances.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "graph/view_cache.hpp"
#include "mcf/path_lp.hpp"
#include "mcf/path_lp_session.hpp"
#include "mcf/routing.hpp"
#include "oracle/path_lp.hpp"
#include "util/rng.hpp"

namespace netrec::mcf {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Ladder graph: two s-t routes of given capacities plus rungs.
Graph two_route_graph(double cap_a, double cap_b) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.add_node();
  g.add_edge(0, 1, cap_a);
  g.add_edge(1, 3, cap_a);
  g.add_edge(0, 2, cap_b);
  g.add_edge(2, 3, cap_b);
  return g;
}

/// One solve of a throwaway session (kMaxRouted / kMinCost).
PathLpResult solve_once(PathLpSession& session, const Graph& g,
                        const std::vector<Demand>& demands) {
  return session.solve(graph::GraphView::build(g), demand_specs(demands));
}

TEST(PathLp, MaxRoutedConvergesToExactOptimum) {
  Graph g = two_route_graph(7.0, 5.0);
  PathLpSession lp(g, PathLpMode::kMaxRouted);
  const auto r = solve_once(lp, g, {Demand{0, 3, 100.0}});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  EXPECT_FALSE(r.routing.fully_routed);
}

TEST(PathLp, ModeMustBeConfigured) {
  Graph g = two_route_graph(1.0, 1.0);
  const auto view = graph::GraphView::build(g);
  const auto specs = demand_specs({Demand{0, 3, 1.0}});
  // kMinCost needs its objective; each mode has its own entry point.
  PathLpSession min_cost(g, PathLpMode::kMinCost);
  EXPECT_THROW(min_cost.solve(view, specs), std::logic_error);
  PathLpSession split(g, PathLpMode::kMaxSplit);
  EXPECT_THROW(split.solve(view, specs), std::logic_error);
  PathLpSession routed(g, PathLpMode::kMaxRouted);
  EXPECT_THROW(routed.solve_split(view, specs, 0, 1), std::logic_error);
  EXPECT_THROW(routed.set_min_cost_objective([](EdgeId) { return 0.0; }),
               std::logic_error);
}

TEST(PathLp, MinCostPrefersCheapEdges) {
  Graph g = two_route_graph(10.0, 10.0);
  // Route A (via node 1) costs 5 per edge; route B free.
  PathLpSession lp(g, PathLpMode::kMinCost);
  lp.set_min_cost_objective([&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 1 || ev == 1) ? 5.0 : 0.0;
  });
  const auto r = solve_once(lp, g, {Demand{0, 3, 8.0}});
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.routing.fully_routed);
  EXPECT_NEAR(r.objective, 0.0, 1e-6);  // everything on route B
}

TEST(PathLp, MinCostPaysWhenForcedAcrossBothRoutes) {
  Graph g = two_route_graph(10.0, 4.0);
  PathLpSession lp(g, PathLpMode::kMinCost);
  lp.set_min_cost_objective([&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 1 || ev == 1) ? 1.0 : 0.0;
  });
  // Demand 10 > free route capacity 4: six units must take the 2-cost route.
  const auto r = solve_once(lp, g, {Demand{0, 3, 10.0}});
  EXPECT_TRUE(r.routing.fully_routed);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);  // 6 units x cost 2
}

TEST(PathLp, MinCostReportsShortfallWhenInfeasible) {
  Graph g = two_route_graph(2.0, 1.0);
  PathLpSession lp(g, PathLpMode::kMinCost);
  lp.set_min_cost_objective([](EdgeId) { return 0.0; });
  const auto r = solve_once(lp, g, {Demand{0, 3, 10.0}});
  EXPECT_FALSE(r.routing.fully_routed);
  ASSERT_EQ(r.shortfall.size(), 1u);
  EXPECT_NEAR(r.shortfall[0], 7.0, 1e-6);  // 10 wanted, 3 routable
}

TEST(PathLp, MaxSplitHonoursDxCap) {
  Graph g = two_route_graph(6.0, 9.0);
  PathLpSession lp(g, PathLpMode::kMaxSplit);
  const auto r = lp.solve_split(graph::GraphView::build(g),
                                demand_specs({Demand{0, 3, 4.0}}), 0, 1);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);  // dx capped by the demand itself
}

TEST(PathLp, SplitIndexValidation) {
  Graph g = two_route_graph(1.0, 1.0);
  PathLpSession lp(g, PathLpMode::kMaxSplit);
  EXPECT_THROW(lp.solve_split(graph::GraphView::build(g),
                              demand_specs({Demand{0, 3, 1.0}}), 5, 1),
               std::invalid_argument);
}

TEST(PathLp, CostBoundRequiresMinCostMode) {
  Graph g = two_route_graph(1.0, 1.0);
  PathLpSession lp(g, PathLpMode::kMaxRouted);
  EXPECT_THROW(
      lp.add_cost_bound(PathCostBound{[](EdgeId) { return 1.0; }, 5.0}),
      std::logic_error);
}

TEST(PathLp, CostBoundPinsTheOptimalFace) {
  Graph g = two_route_graph(10.0, 10.0);
  auto route_a_cost = [&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 1 || ev == 1) ? 1.0 : 0.0;
  };
  // Secondary objective prefers route A, but the bound row pins route-A
  // usage to zero cost, forcing the flow onto route B.
  PathLpSession lp(g, PathLpMode::kMinCost);
  lp.set_min_cost_objective([&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 2 || ev == 2) ? 1.0 : 0.0;  // dislikes route B
  });
  lp.add_cost_bound(PathCostBound{route_a_cost, 0.0});
  const auto r = solve_once(lp, g, {Demand{0, 3, 5.0}});
  EXPECT_TRUE(r.routing.fully_routed);
  for (const auto& flow : r.routing.flows) {
    if (flow.amount <= 1e-7) continue;
    for (NodeId n : flow.path.nodes(g)) EXPECT_NE(n, 1);
  }
}

TEST(PathLp, LazyCapacityRowsActivateOnLargeGraphs) {
  // A long chain (> eager threshold edges) with one tight middle edge.
  Graph g;
  const int n = 200;
  for (int i = 0; i < n; ++i) g.add_node();
  for (int i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1, i == n / 2 ? 3.0 : 100.0);
  }
  PathLpOptions opt;
  opt.eager_capacity_threshold = 50;  // force lazy mode
  PathLpSession lp(g, PathLpMode::kMaxRouted, opt);
  const auto r = solve_once(lp, g, {Demand{0, n - 1, 10.0}});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);  // the tight edge binds
}

TEST(PathLp, ParallelDemandsShareFairlyAtOptimum) {
  // Total capacity 12; three demands of 6 each -> max routed is 12, however
  // distributed.  The optimum must not exceed capacity nor demand.
  Graph g = two_route_graph(6.0, 6.0);
  std::vector<Demand> demands{Demand{0, 3, 6.0}, Demand{0, 3, 6.0},
                              Demand{0, 3, 6.0}};
  PathLpSession lp(g, PathLpMode::kMaxRouted);
  const auto r = solve_once(lp, g, demands);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  for (std::size_t h = 0; h < demands.size(); ++h) {
    EXPECT_LE(r.routing.routed[h], 6.0 + 1e-6);
  }
}

TEST(PathLp, RandomInstancesNeverExceedCapacities) {
  util::Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g;
    const int n = 10;
    for (int i = 0; i < n; ++i) g.add_node();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.chance(0.4)) g.add_edge(i, j, rng.uniform(1.0, 6.0));
      }
    }
    std::vector<Demand> demands;
    for (int k = 0; k < 3; ++k) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto t = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (s != t) demands.push_back(Demand{s, t, rng.uniform(1.0, 5.0)});
    }
    if (demands.empty()) continue;
    PathLpSession lp(g, PathLpMode::kMaxRouted);
    const auto r = solve_once(lp, g, demands);
    EXPECT_TRUE(routing_is_valid(
        g, demands, r.routing.flows, {},
        [&g](EdgeId e) { return g.edge_capacity(e); }))
        << "trial " << trial;
  }
}

// --- PathLpSession: persistent column pool + warm basis ---------------------

/// ViewCache-backed fixture over a mutable residual array, mirroring how
/// ISP drives a session: capacities read live state, mutations are
/// published through the cache and fan out to the registered session.
struct SessionFixture {
  Graph g;
  std::vector<double> residual;
  graph::ViewCache cache;
  graph::ViewCache::SlotId slot;

  explicit SessionFixture(Graph graph)
      : g(std::move(graph)), residual(g.num_edges()), cache(g) {
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      residual[e] = g.edge_capacity(static_cast<EdgeId>(e));
    }
    graph::ViewConfig config;
    config.capacity = [this](EdgeId e) {
      return residual[static_cast<std::size_t>(e)];
    };
    slot = cache.add_config("full", std::move(config));
  }

  const graph::GraphView& view() { return cache.view(slot); }

  void consume(EdgeId e, double amount) {
    residual[static_cast<std::size_t>(e)] =
        std::max(0.0, residual[static_cast<std::size_t>(e)] - amount);
    cache.invalidate_edge(e);
  }
};

TEST(PathLpSession, MatchesOneShotAcrossResidualMutations) {
  SessionFixture fx(two_route_graph(7.0, 5.0));
  PathLpSession session(fx.g, PathLpMode::kMaxRouted);
  fx.cache.add_listener(&session);

  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 100.0}}};
  const std::vector<Demand> plain = {Demand{0, 3, 100.0}};

  // Three rounds, draining route A between rounds; the session must track
  // the one-shot oracle on the identical view exactly.
  for (int round = 0; round < 3; ++round) {
    const auto s = session.solve(fx.view(), specs);
    oracle::PathLp one_shot(fx.view(), plain);
    one_shot.set_max_routed();
    const auto reference = one_shot.solve();
    EXPECT_EQ(s.objective, reference.objective) << "round " << round;
    EXPECT_EQ(s.routing.fully_routed, reference.routing.fully_routed);
    EXPECT_TRUE(s.converged);
    fx.consume(0, 3.0);  // drain edge (0,1) step by step
    fx.consume(1, 3.0);
  }
  // After two drains route A is dry: only route B's 5.0 remains.
  const auto final_result = session.solve(fx.view(), specs);
  EXPECT_NEAR(final_result.objective, 5.0, 1e-6);
  fx.cache.remove_listener(&session);
}

TEST(PathLpSession, DemandUidsBindRowsAcrossCalls) {
  SessionFixture fx(two_route_graph(6.0, 6.0));
  PathLpSession session(fx.g, PathLpMode::kMaxRouted);
  fx.cache.add_listener(&session);

  // uid 7 present, then shrunk, then gone; uid 9 appears mid-session.
  auto solve = [&](std::vector<PathLpSession::DemandSpec> specs) {
    return session.solve(fx.view(), specs);
  };
  EXPECT_NEAR(solve({{7, Demand{0, 3, 4.0}}}).objective, 4.0, 1e-6);
  EXPECT_NEAR(
      solve({{7, Demand{0, 3, 2.0}}, {9, Demand{1, 2, 1.0}}}).objective, 3.0,
      1e-6);
  EXPECT_NEAR(solve({{9, Demand{1, 2, 1.0}}}).objective, 1.0, 1e-6);
  fx.cache.remove_listener(&session);
}

TEST(PathLpSession, SplitProbesMatchOneShot) {
  // Diamond 0-{1,2}-3 plus a tail so splitting through node 1 is bounded.
  Graph g;
  for (int i = 0; i < 4; ++i) g.add_node();
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(0, 2, 4.0);
  g.add_edge(2, 3, 4.0);
  SessionFixture fx(std::move(g));
  PathLpSession session(fx.g, PathLpMode::kMaxSplit);
  fx.cache.add_listener(&session);

  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 5.0}}};
  const std::vector<Demand> plain = {Demand{0, 3, 5.0}};

  for (const NodeId via : {NodeId{1}, NodeId{2}, NodeId{1}}) {
    const auto s = session.solve_split(fx.view(), specs, 0, via);
    oracle::PathLp one_shot(fx.view(), plain);
    one_shot.set_max_split(0, via);
    const auto reference = one_shot.solve();
    EXPECT_EQ(s.objective, reference.objective) << "via " << via;
    EXPECT_EQ(s.routing.fully_routed, reference.routing.fully_routed);
  }
  fx.cache.remove_listener(&session);
}

TEST(PathLpSession, MinCostRepricesAfterInvalidation) {
  SessionFixture fx(two_route_graph(10.0, 10.0));
  // Mutable per-edge cost, read live by the session's objective callback.
  std::vector<double> cost(fx.g.num_edges(), 0.0);
  cost[0] = cost[1] = 5.0;  // route A expensive at first
  PathLpSession session(fx.g, PathLpMode::kMinCost);
  session.set_min_cost_objective(
      [&cost](EdgeId e) { return cost[static_cast<std::size_t>(e)]; });
  fx.cache.add_listener(&session);

  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 8.0}}};
  EXPECT_NEAR(session.solve(fx.view(), specs).objective, 0.0, 1e-6);

  // Flip the price onto route B and publish the change; the surviving
  // columns must be re-priced, which moves the whole optimal routing onto
  // route A (a stale pool would keep riding route B and still *report* a
  // zero model objective, so assert on the witness flows, not the value).
  cost[0] = cost[1] = 0.0;
  cost[2] = cost[3] = 5.0;
  fx.cache.invalidate_edge(0);
  fx.cache.invalidate_edge(1);
  fx.cache.invalidate_edge(2);
  fx.cache.invalidate_edge(3);
  const auto repriced = session.solve(fx.view(), specs);
  EXPECT_NEAR(repriced.objective, 0.0, 1e-6);
  double on_route_a = 0.0;
  for (const PathFlow& flow : repriced.routing.flows) {
    for (EdgeId e : flow.path.edges) {
      if (e == 0) on_route_a += flow.amount;
    }
  }
  EXPECT_NEAR(on_route_a, 8.0, 1e-6);
  fx.cache.remove_listener(&session);
}

TEST(PathLpSession, EpochBumpResetsAllState) {
  SessionFixture fx(two_route_graph(7.0, 5.0));
  PathLpSession session(fx.g, PathLpMode::kMaxRouted);
  fx.cache.add_listener(&session);
  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 100.0}}};
  EXPECT_NEAR(session.solve(fx.view(), specs).objective, 12.0, 1e-6);
  fx.cache.bump_epoch();
  EXPECT_EQ(session.stats().resets, 1u);
  EXPECT_NEAR(session.solve(fx.view(), specs).objective, 12.0, 1e-6);
  fx.cache.remove_listener(&session);
}

TEST(PathLpSession, CostBoundAfterFirstSolveThrows) {
  Graph g = two_route_graph(10.0, 10.0);
  PathLpSession session(g, PathLpMode::kMinCost);
  session.set_min_cost_objective([](EdgeId) { return 1.0; });
  const auto r = solve_once(session, g, {Demand{0, 3, 5.0}});
  EXPECT_TRUE(r.routing.fully_routed);
  EXPECT_THROW(
      session.add_cost_bound(PathCostBound{[](EdgeId) { return 1.0; }, 9.0}),
      std::logic_error);
}

/// Random graph: `n` nodes, each pair joined with probability `p`,
/// capacities in [1, 6).
Graph random_graph(util::Rng& rng, int n, double p) {
  Graph g;
  for (int i = 0; i < n; ++i) g.add_node();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.chance(p)) g.add_edge(i, j, rng.uniform(1.0, 6.0));
    }
  }
  return g;
}

TEST(PathLpSession, DifferentialAgainstOneShotOracle) {
  // Seeded random instances, each solved by a throwaway session and by the
  // one-shot oracle in every mode: eager (few edges) and lazy (more than
  // the 160-edge eager threshold) capacity rows, drained edges and an
  // excluded interior node in the view, and demands that repeat an (s, t)
  // pair.  The two engines may pick different optimal vertices (shared
  // seed pools per pair, warm-appended lazy rows, half rows seeded first),
  // so flows are checked for validity and objectives for agreement, not
  // bytes.
  util::Rng rng(20161);
  int lazy_trials = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool lazy = trial % 2 == 1;
    const int n = lazy ? 30 : 10;
    Graph g = random_graph(rng, n, 0.45);
    if (lazy && g.num_edges() > PathLpOptions{}.eager_capacity_threshold) {
      ++lazy_trials;
    }

    std::vector<Demand> demands;
    for (int k = 0; k < 4; ++k) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      auto t = static_cast<NodeId>(rng.uniform_int(0, n - 2));
      if (t >= s) ++t;
      demands.push_back(Demand{s, t, rng.uniform(1.0, 8.0)});
    }
    // A repeated (s, t) pair with its own amount.
    demands.push_back(Demand{demands[0].source, demands[0].target,
                             rng.uniform(1.0, 4.0)});
    const auto specs = demand_specs(demands);
    const int split = static_cast<int>(rng.uniform_int(0, 4));
    const Demand& h = demands[static_cast<std::size_t>(split)];
    auto via = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    while (via == h.source || via == h.target) via = (via + 1) % n;

    // Demand endpoints and the via node (at most 9 nodes) stay in the
    // view; every third trial drops one other node.
    std::vector<char> terminal(static_cast<std::size_t>(n), 0);
    terminal[static_cast<std::size_t>(via)] = 1;
    for (const Demand& d : demands) {
      terminal[static_cast<std::size_t>(d.source)] = 1;
      terminal[static_cast<std::size_t>(d.target)] = 1;
    }
    NodeId excluded = graph::kInvalidNode;
    if (trial % 3 == 0) {
      excluded = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      while (terminal[static_cast<std::size_t>(excluded)]) {
        excluded = (excluded + 1) % n;
      }
    }
    std::vector<double> capacity(g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      capacity[e] =
          rng.chance(0.1) ? 0.0 : g.edge_capacity(static_cast<EdgeId>(e));
    }
    graph::ViewConfig config;
    config.capacity = [&capacity](EdgeId e) {
      return capacity[static_cast<std::size_t>(e)];
    };
    config.node_ok = [excluded](NodeId v) { return v != excluded; };
    const auto view = graph::GraphView::build(g, config);

    std::vector<double> cost(g.num_edges());
    std::vector<double> secondary(g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      cost[e] = rng.uniform(0.0, 1.0);
      secondary[e] = rng.uniform(0.0, 1.0);
    }
    const graph::EdgeWeight cost_of = [&cost](EdgeId e) {
      return cost[static_cast<std::size_t>(e)];
    };
    const graph::EdgeWeight secondary_of = [&secondary](EdgeId e) {
      return secondary[static_cast<std::size_t>(e)];
    };

    const auto agree = [&](const char* mode, const PathLpResult& reference,
                           const PathLpResult& session,
                           const std::vector<Demand>& flow_demands) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " " << mode);
      EXPECT_TRUE(reference.converged);
      EXPECT_TRUE(session.converged);
      EXPECT_EQ(reference.routing.fully_routed, session.routing.fully_routed);
      EXPECT_NEAR(session.objective, reference.objective,
                  1e-9 * std::max(1.0, std::abs(reference.objective)));
      EXPECT_TRUE(routing_is_valid(
          g, flow_demands, session.routing.flows,
          [&view](EdgeId e) { return view.edge_in_view(e); },
          [&view](EdgeId e) { return view.edge_capacity(e); }));
    };

    {
      oracle::PathLp reference(view, demands);
      reference.set_max_routed();
      PathLpSession session(g, PathLpMode::kMaxRouted);
      agree("kMaxRouted", reference.solve(), session.solve(view, specs),
            demands);
    }
    double base_cost = 0.0;
    {
      oracle::PathLp reference(view, demands);
      reference.set_min_cost(cost_of);
      const PathLpResult expected = reference.solve();
      base_cost = expected.objective;
      PathLpSession session(g, PathLpMode::kMinCost);
      session.set_min_cost_objective(cost_of);
      agree("kMinCost", expected, session.solve(view, specs), demands);
    }
    {
      // Pin the first objective (eq. 8 style) and re-optimise another.
      const PathCostBound bound{cost_of, base_cost + 1e-6};
      oracle::PathLp reference(view, demands);
      reference.set_min_cost(secondary_of);
      reference.add_cost_bound(bound);
      PathLpSession session(g, PathLpMode::kMinCost);
      session.set_min_cost_objective(secondary_of);
      session.add_cost_bound(bound);
      agree("kMinCost+bound", reference.solve(), session.solve(view, specs),
            demands);
    }
    {
      std::vector<Demand> with_halves = demands;
      with_halves.push_back(Demand{h.source, via, h.amount});
      with_halves.push_back(Demand{via, h.target, h.amount});
      oracle::PathLp reference(view, demands);
      reference.set_max_split(split, via);
      PathLpSession session(g, PathLpMode::kMaxSplit);
      agree("kMaxSplit", reference.solve(),
            session.solve_split(view, specs, split, via), with_halves);
    }
  }
  EXPECT_GE(lazy_trials, 10);
}

}  // namespace
}  // namespace netrec::mcf
