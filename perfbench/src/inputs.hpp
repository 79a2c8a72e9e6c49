// Workload inputs, generated from the run's seed.
//
// The program under test sees only what these functions produce: damage
// states (the sets of broken elements a planner is asked about) and, for the
// serve workloads, the wire bytes of the POST /v1/plan requests that carry
// them.  The same seed gives the same states and bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "graph/graph.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// One damage state: broken node and edge ids, sorted ascending.
struct DamageState {
  std::vector<netrec::graph::NodeId> nodes;
  std::vector<netrec::graph::EdgeId> edges;
};

/// The disruption-variance range of the paper's Fig. 6 sweep.
inline constexpr double kVarianceLow = 10.0;
inline constexpr double kVarianceHigh = 150.0;

/// netrecd's default preload (serve::declare_preload_flags defaults):
/// bell_canada topology seed 1, 8 far-apart pairs of 12, demand seed 7.
netrec::core::RecoveryProblem netrecd_default_preload();

/// The same construction with other demand parameters, built from the same
/// calls as serve::build_preloaded_problem; with a tracer, records the
/// "graph.topology_load" and "scenario.far_apart_demands" spans.
netrec::core::RecoveryProblem bell_canada_problem(std::size_t pairs,
                                                  double amount,
                                                  std::uint64_t demand_seed,
                                                  Tracer* tracer = nullptr);

/// Reads the broken flags of `g` into a DamageState and clears them.
DamageState take_damage(netrec::graph::Graph& g);

/// Sets (or clears) the state's broken flags on `g`.
void apply_damage(netrec::graph::Graph& g, const DamageState& state,
                  bool broken = true);

/// The slice of its range each parameter of a gaussian disaster is drawn
/// from, as fractions [low, high) of the range: the epicentre's x and y of
/// the nodes' bounding box, the variance of the paper's range.
struct DisasterSlice {
  double x_low = 0.0, x_high = 1.0;
  double y_low = 0.0, y_high = 1.0;
  double variance_low = 0.0, variance_high = 1.0;
};

/// One gaussian disaster on the operational graph `g`, each parameter
/// uniform in its slice (default: epicentre anywhere in the bounding box,
/// variance anywhere in the paper's range).  `g` is left operational.
DamageState gaussian_state(netrec::graph::Graph& g, netrec::util::Rng& rng,
                           const DisasterSlice& slice = {});

/// One uniformly random failure draw (each node and edge fails with
/// probability p).  `g` is left operational.
DamageState random_state(netrec::graph::Graph& g, double p,
                         netrec::util::Rng& rng);

/// `count` gaussian damage states with pairwise distinct serve cache keys
/// (serve::canonical_key), drawn from `seed` as a Latin hypercube in blocks:
/// within each run of `block` consecutive states, the epicentre's x, its y
/// and the variance each fall once in every one of `block` equal slices of
/// their range.  So the mean plan quality over a block varies less from
/// seed to seed than over independent draws, and the first blocks do not
/// depend on `count`.  Gives up when 1024 draws in a row repeat a key and
/// returns what it has, so the caller must check the size.  With a tracer,
/// each draw is a "disruption.draw" span.
std::vector<DamageState> distinct_gaussian_states(
    const netrec::core::RecoveryProblem& problem, std::size_t count,
    std::size_t block, std::uint64_t seed, Tracer* tracer = nullptr);

/// The isp-mode plan request for a damage state.
netrec::serve::PlanRequest plan_request(const DamageState& state);

/// Wire body of POST /v1/plan for a damage state.
std::string request_body(const DamageState& state);

/// Independent child stream `index` of `seed` (client sequences, per-run
/// seeds), stable regardless of how many streams are taken.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
