#include "inputs.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "disruption/disruption.hpp"
#include "scenario/scenario.hpp"
#include "serve/preload.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace perfbench {

using netrec::graph::EdgeId;
using netrec::graph::NodeId;

netrec::core::RecoveryProblem netrecd_default_preload() {
  netrec::util::Flags flags;
  netrec::serve::declare_preload_flags(flags);
  return netrec::serve::build_preloaded_problem(flags);
}

netrec::core::RecoveryProblem bell_canada_problem(std::size_t pairs,
                                                  double amount,
                                                  std::uint64_t demand_seed,
                                                  Tracer* tracer) {
  netrec::core::RecoveryProblem problem;
  {
    const ScopedSpan span(tracer, "graph.topology_load", 0);
    netrec::topology::GeneratorParams params =
        netrec::topology::params_for("bell_canada");
    params.seed = 1;
    problem.graph = netrec::topology::make_topology(params);
  }
  const ScopedSpan span(tracer, "scenario.far_apart_demands", 0);
  netrec::util::Rng rng(demand_seed);
  problem.demands =
      netrec::scenario::far_apart_demands(problem.graph, pairs, amount, rng);
  return problem;
}

DamageState take_damage(netrec::graph::Graph& g) {
  DamageState state;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto id = static_cast<NodeId>(n);
    if (g.node_broken(id)) {
      state.nodes.push_back(id);
      g.set_node_broken(id, false);
    }
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<EdgeId>(e);
    if (g.edge_broken(id)) {
      state.edges.push_back(id);
      g.set_edge_broken(id, false);
    }
  }
  return state;
}

void apply_damage(netrec::graph::Graph& g, const DamageState& state,
                  bool broken) {
  for (NodeId n : state.nodes) g.set_node_broken(n, broken);
  for (EdgeId e : state.edges) g.set_edge_broken(e, broken);
}

DamageState gaussian_state(netrec::graph::Graph& g, netrec::util::Rng& rng,
                           const DisasterSlice& slice) {
  double min_x = std::numeric_limits<double>::infinity();
  double max_x = -min_x;
  double min_y = min_x;
  double max_y = -min_x;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto id = static_cast<NodeId>(n);
    min_x = std::min(min_x, g.node_x(id));
    max_x = std::max(max_x, g.node_x(id));
    min_y = std::min(min_y, g.node_y(id));
    max_y = std::max(max_y, g.node_y(id));
  }
  netrec::disruption::GaussianDisasterOptions options;
  const double x = rng.uniform(slice.x_low, slice.x_high);
  const double y = rng.uniform(slice.y_low, slice.y_high);
  const double v = rng.uniform(slice.variance_low, slice.variance_high);
  options.epicenter =
      std::make_pair(min_x + x * (max_x - min_x), min_y + y * (max_y - min_y));
  options.variance = kVarianceLow + v * (kVarianceHigh - kVarianceLow);
  netrec::disruption::gaussian_disaster(g, options, rng);
  return take_damage(g);
}

DamageState random_state(netrec::graph::Graph& g, double p,
                         netrec::util::Rng& rng) {
  netrec::disruption::random_failures(g, p, p, rng);
  return take_damage(g);
}

std::vector<DamageState> distinct_gaussian_states(
    const netrec::core::RecoveryProblem& problem, std::size_t count,
    std::size_t block, std::uint64_t seed, Tracer* tracer) {
  netrec::graph::Graph scratch = problem.graph;
  take_damage(scratch);
  netrec::util::Rng rng(seed);
  block = std::max<std::size_t>(block, 1);
  const double width = 1.0 / static_cast<double>(block);
  // Slice indices of the current block, one shuffle per parameter.
  std::vector<std::size_t> xs(block);
  std::vector<std::size_t> ys(block);
  std::vector<std::size_t> vs(block);
  std::unordered_set<std::string> keys;
  std::vector<DamageState> states;
  std::uint64_t draw = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = k % block;
    if (j == 0) {
      for (std::vector<std::size_t>* slices : {&xs, &ys, &vs}) {
        for (std::size_t i = 0; i < block; ++i) (*slices)[i] = i;
        std::shuffle(slices->begin(), slices->end(), rng);
      }
    }
    DisasterSlice slice;
    slice.x_low = width * static_cast<double>(xs[j]);
    slice.x_high = slice.x_low + width;
    slice.y_low = width * static_cast<double>(ys[j]);
    slice.y_high = slice.y_low + width;
    slice.variance_low = width * static_cast<double>(vs[j]);
    slice.variance_high = slice.variance_low + width;
    // A duplicate key is drawn again: 8 times in the state's slices (a
    // small-variance slice often breaks nothing), then over whole ranges.
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt == 1024) return states;
      DamageState state;
      {
        const ScopedSpan span(tracer, "disruption.draw", draw++);
        state = gaussian_state(scratch, rng,
                               attempt < 8 ? slice : DisasterSlice{});
      }
      if (keys.insert(netrec::serve::canonical_key(plan_request(state)))
              .second) {
        states.push_back(std::move(state));
        break;
      }
    }
  }
  return states;
}

netrec::serve::PlanRequest plan_request(const DamageState& state) {
  netrec::serve::PlanRequest request;
  request.broken_nodes = state.nodes;
  request.broken_edges = state.edges;
  return request;
}

std::string request_body(const DamageState& state) {
  netrec::util::Json nodes = netrec::util::Json::array();
  for (NodeId n : state.nodes) nodes.push_back(static_cast<double>(n));
  netrec::util::Json edges = netrec::util::Json::array();
  for (EdgeId e : state.edges) edges.push_back(static_cast<double>(e));
  netrec::util::Json body = netrec::util::Json::object();
  body.set("broken_nodes", std::move(nodes));
  body.set("broken_edges", std::move(edges));
  return body.dump();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // SplitMix64 finaliser over (seed, index): decorrelated child seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
