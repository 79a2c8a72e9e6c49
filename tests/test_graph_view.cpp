// GraphView equivalence and contract tests.
//
// The CSR snapshot layer promises bit-identical outputs to the test-only
// std::function reference kernels in tests/oracle (netrec::oracle).  These
// are seeded property tests over random Erdős–Rényi draws and the
// Bell-Canada topology, always with a random subset of elements broken so
// the usability filters actually filter; every comparison is exact (==),
// not approximate.  Each test runs the oracle on callbacks and the library
// kernel on a GraphView built from the same callbacks.
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "graph/betweenness.hpp"
#include "graph/dijkstra.hpp"
#include "graph/maxflow.hpp"
#include "graph/simple_paths.hpp"
#include "graph/traversal.hpp"
#include "graph/view.hpp"
#include "oracle/oracle.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace netrec;

/// Connected-ish ER draw with ~15% broken edges and ~10% broken nodes.
graph::Graph broken_er(std::uint64_t seed, std::size_t nodes = 40,
                       double p = 0.15) {
  util::Rng rng(seed);
  topology::ErdosRenyiOptions options;
  options.nodes = nodes;
  options.edge_probability = p;
  options.capacity = 8.0;
  graph::Graph g = topology::make_topology(options, rng);
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (rng.chance(0.1)) g.set_node_broken(static_cast<graph::NodeId>(n), true);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (rng.chance(0.15)) g.set_edge_broken(static_cast<graph::EdgeId>(e), true);
  }
  return g;
}

graph::Graph broken_bell_canada(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (rng.chance(0.15)) g.set_node_broken(static_cast<graph::NodeId>(n), true);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (rng.chance(0.2)) g.set_edge_broken(static_cast<graph::EdgeId>(e), true);
  }
  return g;
}

/// Non-uniform deterministic length metric so ties are rare but present.
graph::EdgeWeight test_length() {
  return [](graph::EdgeId e) {
    return 1.0 + static_cast<double>(e % 5) * 0.25;
  };
}

/// Snapshot of `g` under the given callbacks — what the kernels consume.
graph::GraphView view_of(const graph::Graph& g, graph::EdgeFilter edge_ok,
                         graph::NodeFilter node_ok, graph::EdgeWeight length,
                         graph::EdgeWeight capacity = {}) {
  graph::ViewConfig config;
  config.edge_ok = std::move(edge_ok);
  config.node_ok = std::move(node_ok);
  config.length = std::move(length);
  config.capacity = std::move(capacity);
  return graph::GraphView::build(g, config);
}

void expect_same_tree(const graph::ShortestPathTree& a,
                      const graph::ShortestPathTree& b) {
  ASSERT_EQ(a.distance.size(), b.distance.size());
  for (std::size_t i = 0; i < a.distance.size(); ++i) {
    EXPECT_EQ(a.distance[i], b.distance[i]) << "distance mismatch at " << i;
    EXPECT_EQ(a.parent_edge[i], b.parent_edge[i]) << "parent mismatch at "
                                                  << i;
  }
}

void check_dijkstra_equivalence(const graph::Graph& g) {
  const auto length = test_length();
  const auto edge_ok = graph::working_edge_filter(g);
  const auto node_ok = [&g](graph::NodeId n) { return !g.node_broken(n); };
  for (graph::NodeId s = 0; s < static_cast<graph::NodeId>(g.num_nodes());
       s += 7) {
    expect_same_tree(
        oracle::dijkstra(g, s, length, edge_ok, node_ok),
        graph::dijkstra(view_of(g, edge_ok, node_ok, length), s));
    // Filter-free variant exercises the full graph.
    expect_same_tree(oracle::dijkstra(g, s, length),
                     graph::dijkstra(view_of(g, {}, {}, length), s));
  }
}

TEST(GraphViewDijkstra, BitIdenticalToLegacyOnRandomEr) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    check_dijkstra_equivalence(broken_er(seed));
  }
}

TEST(GraphViewDijkstra, BitIdenticalToLegacyOnBellCanada) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_dijkstra_equivalence(broken_bell_canada(seed));
  }
}

TEST(GraphViewWidestPath, BitIdenticalToLegacy) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const graph::Graph g = broken_er(seed);
    const auto capacity = [&g](graph::EdgeId e) { return g.edge_capacity(e); };
    const auto edge_ok = graph::working_edge_filter(g);
    const auto t = static_cast<graph::NodeId>(g.num_nodes() - 1);
    const auto a = oracle::widest_path(g, 0, t, capacity, edge_ok);
    const auto b =
        graph::widest_path(view_of(g, edge_ok, {}, {}, capacity), 0, t);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->start, b->start);
      EXPECT_EQ(a->edges, b->edges);
    }
  }
}

TEST(GraphViewBetweenness, BitIdenticalToLegacyOnRandomEr) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const graph::Graph g = broken_er(seed);
    const auto length = test_length();
    const auto edge_ok = graph::working_edge_filter(g);
    const auto a = oracle::betweenness_centrality(g, length, edge_ok);
    const auto b =
        graph::betweenness_centrality(view_of(g, edge_ok, {}, length));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "betweenness mismatch at node " << i;
    }
  }
}

TEST(GraphViewBetweenness, BitIdenticalToLegacyOnBellCanada) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const graph::Graph g = broken_bell_canada(seed);
    const auto length = test_length();
    const auto node_ok = [&g](graph::NodeId n) { return !g.node_broken(n); };
    const auto a = oracle::betweenness_centrality(
        g, length, graph::working_edge_filter(g), node_ok);
    const auto b = graph::betweenness_centrality(
        view_of(g, graph::working_edge_filter(g), node_ok, length));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "betweenness mismatch at node " << i;
    }
  }
}

TEST(GraphViewMaxflow, BitIdenticalToLegacy) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const graph::Graph g = broken_er(seed, /*nodes=*/30, /*p=*/0.2);
    const auto capacity = [&g](graph::EdgeId e) { return g.edge_capacity(e); };
    const auto edge_ok = graph::working_edge_filter(g);
    const auto node_ok = [&g](graph::NodeId n) { return !g.node_broken(n); };
    const auto t = static_cast<graph::NodeId>(g.num_nodes() - 1);
    const auto a = oracle::max_flow(g, 0, t, capacity, edge_ok, node_ok);
    const auto b =
        graph::max_flow(view_of(g, edge_ok, node_ok, {}, capacity), 0, t);
    EXPECT_EQ(a.value, b.value);
    ASSERT_EQ(a.edge_flow.size(), b.edge_flow.size());
    for (std::size_t e = 0; e < a.edge_flow.size(); ++e) {
      EXPECT_EQ(a.edge_flow[e], b.edge_flow[e]) << "flow mismatch on edge "
                                                << e;
    }
  }
}

TEST(GraphViewSuccessivePaths, BitIdenticalToLegacyComposition) {
  // Replicates the successive-shortest-paths loop with oracle::dijkstra and
  // compares the selected paths and capacities.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const graph::Graph g = broken_er(seed);
    const auto length = test_length();
    const auto capacity = [&g](graph::EdgeId e) { return g.edge_capacity(e); };
    const auto edge_ok = graph::working_edge_filter(g);
    const auto t = static_cast<graph::NodeId>(g.num_nodes() - 1);
    const double demand = 30.0;

    std::vector<double> residual(g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      residual[e] = capacity(static_cast<graph::EdgeId>(e));
    }
    graph::SuccessivePathsResult expected;
    constexpr double kEps = 1e-9;
    while (expected.total_capacity < demand - kEps &&
           expected.paths.size() < 64) {
      auto usable = [&](graph::EdgeId e) {
        if (residual[static_cast<std::size_t>(e)] <= kEps) return false;
        return edge_ok(e);
      };
      auto path =
          oracle::dijkstra(g, 0, length, usable).path_to(g, t);
      if (!path) break;
      double cap = std::numeric_limits<double>::infinity();
      for (graph::EdgeId e : path->edges) {
        cap = std::min(cap, residual[static_cast<std::size_t>(e)]);
      }
      if (cap <= kEps) break;
      for (graph::EdgeId e : path->edges) {
        residual[static_cast<std::size_t>(e)] -= cap;
      }
      expected.total_capacity += cap;
      expected.capacities.push_back(cap);
      expected.paths.push_back(std::move(*path));
    }

    const auto actual = graph::successive_shortest_paths(
        view_of(g, edge_ok, {}, length, capacity), 0, t, demand);
    ASSERT_EQ(expected.paths.size(), actual.paths.size());
    EXPECT_EQ(expected.total_capacity, actual.total_capacity);
    for (std::size_t p = 0; p < expected.paths.size(); ++p) {
      EXPECT_EQ(expected.paths[p].edges, actual.paths[p].edges);
      EXPECT_EQ(expected.capacities[p], actual.capacities[p]);
    }
  }
}

TEST(GraphViewStructure, WorkingViewMatchesEdgeUsable) {
  const graph::Graph g = broken_er(11);
  const auto view = graph::GraphView::working(g);
  std::size_t usable_edges = 0;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    EXPECT_EQ(view.edge_in_view(id), g.edge_usable(id));
    if (g.edge_usable(id)) ++usable_edges;
  }
  // Every usable undirected edge contributes exactly two arcs (the working
  // filter already excludes broken endpoints, so no head-check drops more).
  EXPECT_EQ(view.num_arcs(), 2 * usable_edges);
  EXPECT_EQ(view.num_nodes(), g.num_nodes());
  EXPECT_EQ(view.num_edges(), g.num_edges());
}

TEST(GraphViewStructure, ArcOrderFollowsAdjacency) {
  const graph::Graph g = broken_er(12);
  const auto view = graph::GraphView::working(g);
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto u = static_cast<graph::NodeId>(n);
    graph::ArcId a = view.arcs_begin(u);
    for (graph::EdgeId e : g.incident_edges(u)) {
      if (!g.edge_usable(e)) continue;
      ASSERT_LT(a, view.arcs_end(u));
      EXPECT_EQ(view.arc_edge(a), e);
      EXPECT_EQ(view.arc_target(a), g.other_endpoint(e, u));
      ++a;
    }
    EXPECT_EQ(a, view.arcs_end(u));
  }
}

TEST(GraphValidation, RejectsNaNAndNegativeInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  graph::Graph g;
  g.add_node();
  g.add_node();
  EXPECT_THROW(g.add_node("x", 0, 0, nan), std::invalid_argument);
  EXPECT_THROW(g.add_node("x", 0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -2.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, nan), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, -1.0), std::invalid_argument);
  EXPECT_EQ(g.add_edge(0, 1, 1.0), 0);
}

TEST(GraphValidation, WidestPathRejectsNaNAndNegativeCapacity) {
  graph::Graph g;
  g.add_node();
  g.add_node();
  g.add_node();
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 5.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto widest = [&g](graph::EdgeWeight capacity) {
    graph::ViewConfig config;
    config.capacity = std::move(capacity);
    return graph::widest_path(graph::GraphView::build(g, config), 0, 2);
  };
  EXPECT_THROW(widest([nan](graph::EdgeId) { return nan; }),
               std::invalid_argument);
  EXPECT_THROW(widest([](graph::EdgeId) { return -1.0; }),
               std::invalid_argument);
  EXPECT_THROW(
      oracle::widest_path(g, 0, 2, [nan](graph::EdgeId) { return nan; }),
      std::invalid_argument);
  // Valid capacities still work.
  const auto path = widest([](graph::EdgeId) { return 5.0; });
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->edges.size(), 2u);
}

TEST(GraphValidation, DijkstraRejectsNaNLength) {
  graph::Graph g;
  g.add_node();
  g.add_node();
  g.add_edge(0, 1, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto run = [&g](graph::EdgeWeight length) {
    graph::ViewConfig config;
    config.length = std::move(length);
    return graph::dijkstra(graph::GraphView::build(g, config), 0);
  };
  EXPECT_THROW(run([nan](graph::EdgeId) { return nan; }),
               std::invalid_argument);
  EXPECT_THROW(run([](graph::EdgeId) { return -0.5; }),
               std::invalid_argument);
}

}  // namespace
