// ISP and Timeline differential harness against recorded references.
//
// Every case is one line of tests/golden/isp_timeline.golden, keyed by
// "<kind>/<family>/<seed>/<option combo>".  A line records, exactly:
//   * ISP: repair lists in decision order, the IspStats counters, the
//     traced event stream (prune/split amounts as %a hex floats, i.e. the
//     flows the engine committed), the referee routing (total and per
//     demand), the repair cost and the satisfied fraction;
//   * Timeline: per stage the executed repairs, the routed demand after
//     each repair and at stage end, the shock and the repair cost, plus the
//     run totals.
//
// The lines were recorded from the reference engines ISP used to carry
// beside its product path — the std::function graph kernels with a fresh
// snapshot per call, and the one-shot PathLp per LP call — while the live
// differential suites that pinned those references bit-identical to the
// cached-view + PathLpSession engine were green, and the three engines'
// recordings were byte-identical.  So each suite below still checks what
// its name says, against the recorded reference output instead of a live
// one; the legacy and one-shot default-option suites read the same lines.
// Any change to the cached views, the PathLpSession reuse, the centrality
// fast paths or the thread-pool merges that moves one repair or one ulp of
// a flow fails here.
//
// Corpus: seeded broken ER (24 nodes) and Bell-Canada instances — ER seeds
// 1-12 and Bell-Canada seeds 1-8 under default options, seeds 101-103 and
// 201-203 of both families under every option combination, and the
// evolving-dynamics Timeline matrix (replan/list policies under
// aftershocks and overload cascades, seeds 41-43).
//
// Regenerating after an *intentional* behaviour change (run the binary
// directly, not through ctest and with no --gtest_filter, so every case is
// recorded in one process):
//   NETREC_UPDATE_GOLDEN=1 <build>/netrec_test_isp_differential
// rewrites tests/golden/isp_timeline.golden in the source tree, one line
// per case sorted by key; review the diff like any other golden.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/isp.hpp"
#include "core/problem.hpp"
#include "disruption/disruption.hpp"
#include "graph/traversal.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace netrec;

const std::string kGoldenPath =
    std::string(NETREC_GOLDEN_DIR) + "/isp_timeline.golden";

bool updating() { return std::getenv("NETREC_UPDATE_GOLDEN") != nullptr; }

/// Update mode: every case recorded by this process, written sorted by key
/// when the run ends.
std::map<std::string, std::string>& recorded() {
  static std::map<std::string, std::string> lines;
  return lines;
}

class GoldenUpdate : public ::testing::Environment {
 public:
  void TearDown() override {
    if (!updating()) return;
    std::ofstream out(kGoldenPath, std::ios::trunc);
    for (const auto& [id, payload] : recorded()) {
      out << id << ' ' << payload << '\n';
    }
  }
};

[[maybe_unused]] ::testing::Environment* const kGoldenUpdate =
    ::testing::AddGlobalTestEnvironment(new GoldenUpdate);

std::map<std::string, std::string> read_golden() {
  std::map<std::string, std::string> lines;
  std::ifstream in(kGoldenPath);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (line.empty() || space == std::string::npos) continue;
    lines[line.substr(0, space)] = line.substr(space + 1);
  }
  return lines;
}

/// Compares (or, in update mode, records) one group of "<id> <payload>"
/// lines.
void check_against_golden(
    const std::vector<std::pair<std::string, std::string>>& cases) {
  if (updating()) {
    for (const auto& [id, payload] : cases) recorded()[id] = payload;
    return;
  }
  static const auto golden = read_golden();
  ASSERT_FALSE(golden.empty()) << "missing or empty golden " << kGoldenPath;
  for (const auto& [id, payload] : cases) {
    const auto it = golden.find(id);
    ASSERT_NE(it, golden.end()) << "case " << id << " not in the golden";
    EXPECT_EQ(payload, it->second) << "case " << id;
  }
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

template <typename T, typename Fn>
std::string join(const std::vector<T>& items, Fn&& fmt) {
  if (items.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt(items[i]);
  }
  return out;
}

std::string join_ids(const std::vector<int>& ids) {
  return join(ids, [](int id) { return std::to_string(id); });
}

std::string join_hex(const std::vector<double>& values) {
  return join(values, hex);
}

// --- corpus ------------------------------------------------------------------

/// Broken connected-ish ER instance with far-apart demands.
core::RecoveryProblem er_scenario(std::uint64_t seed) {
  util::Rng rng(seed * 104729 + 13);
  core::RecoveryProblem p;
  topology::ErdosRenyiOptions eopt;
  eopt.nodes = 24;
  eopt.edge_probability = 0.18;
  eopt.capacity = 10.0;
  std::size_t attempts = 0;
  do {
    p.graph = topology::make_topology(eopt, rng);
  } while (graph::hop_diameter(graph::GraphView::build(p.graph)) < 0 &&
           ++attempts < 50);
  util::Rng demand_rng = rng.fork();
  p.demands = scenario::far_apart_demands(p.graph, 3, 4.0, demand_rng);
  // Heavy but not complete destruction, so prune bubbles exist.
  for (std::size_t n = 0; n < p.graph.num_nodes(); ++n) {
    if (rng.chance(0.55)) {
      p.graph.set_node_broken(static_cast<graph::NodeId>(n), true);
    }
  }
  for (std::size_t e = 0; e < p.graph.num_edges(); ++e) {
    if (rng.chance(0.6)) {
      p.graph.set_edge_broken(static_cast<graph::EdgeId>(e), true);
    }
  }
  return p;
}

/// Bell-Canada under regional (odd seeds) or complete (even) destruction.
core::RecoveryProblem bell_canada_scenario(std::uint64_t seed) {
  util::Rng rng(seed * 7907 + 5);
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng demand_rng = rng.fork();
  p.demands = scenario::far_apart_demands(p.graph, 4, 3.0, demand_rng);
  if (seed % 2 == 0) {
    disruption::complete_destruction(p.graph);
  } else {
    for (std::size_t n = 0; n < p.graph.num_nodes(); ++n) {
      if (rng.chance(0.5)) {
        p.graph.set_node_broken(static_cast<graph::NodeId>(n), true);
      }
    }
    for (std::size_t e = 0; e < p.graph.num_edges(); ++e) {
      if (rng.chance(0.5)) {
        p.graph.set_edge_broken(static_cast<graph::EdgeId>(e), true);
      }
    }
  }
  return p;
}

core::RecoveryProblem scenario_for(const std::string& family,
                                   std::uint64_t seed) {
  return family == "er" ? er_scenario(seed) : bell_canada_scenario(seed);
}

/// The option matrix: default engine, both centrality modes, the LP in
/// eager and lazy capacity-row regimes, prune/direct-repair ablations and
/// jittered metrics.
using Combos = std::vector<std::pair<std::string, core::IspOptions>>;

Combos option_combos() {
  Combos combos;
  combos.emplace_back("default", core::IspOptions{});
  {
    core::IspOptions o;
    o.use_classic_betweenness = true;
    combos.emplace_back("classic-betweenness", o);
  }
  {
    core::IspOptions o;
    o.lp.eager_capacity_threshold = 0;  // force lazy capacity rows
    combos.emplace_back("lp-lazy-rows", o);
  }
  {
    core::IspOptions o;
    o.lp.seed_paths_per_demand = 0;  // LP starts from an empty column pool
    combos.emplace_back("lp-no-seeds", o);
  }
  {
    core::IspOptions o;
    o.enable_prune = false;
    combos.emplace_back("no-prune", o);
  }
  {
    core::IspOptions o;
    o.enable_direct_edge_repair = false;
    combos.emplace_back("no-direct-repair", o);
  }
  {
    core::IspOptions o;
    o.length_jitter = 0.15;
    o.jitter_seed = 99;
    combos.emplace_back("jittered-metric", o);
  }
  return combos;
}

// --- ISP lines ---------------------------------------------------------------

std::string event_token(const core::IspEvent& ev) {
  using Kind = core::IspEvent::Kind;
  switch (ev.kind) {
    case Kind::kPrune:
      return "P" + std::to_string(ev.demand) + ":" + hex(ev.amount);
    case Kind::kRepairNode:
      return "N" + std::to_string(ev.node);
    case Kind::kRepairEdge:
      return "E" + std::to_string(ev.edge);
    case Kind::kSplit:
      return "S" + std::to_string(ev.demand) + "@" + std::to_string(ev.node) +
             ":" + hex(ev.amount);
    case Kind::kWatchdog:
      return "W" + std::to_string(ev.demand);
  }
  return "?";
}

std::string isp_line(const core::RecoveryProblem& problem,
                     const core::IspOptions& options) {
  core::IspSolver solver(problem, options);
  solver.set_trace(true);
  const core::RecoverySolution sol = solver.solve();
  const core::IspStats& st = solver.stats();
  std::ostringstream out;
  out << "nodes=" << join_ids(sol.repaired_nodes)
      << " edges=" << join_ids(sol.repaired_edges)
      << " iterations=" << st.iterations << " prunes=" << st.prunes
      << " splits=" << st.splits << " direct=" << st.direct_edge_repairs
      << " watchdog=" << st.watchdog_activations
      << " feasible=" << sol.instance_feasible
      << " cost=" << hex(sol.repair_cost)
      << " satisfied=" << hex(sol.satisfied_fraction)
      << " routed_total=" << hex(sol.routing.total_routed)
      << " routed=" << join_hex(sol.routing.routed)
      << " events=" << join(st.events, event_token);
  return out.str();
}

/// Solves one scenario under each named option set and checks the lines.
void check_isp(const std::string& family, std::uint64_t seed,
               const Combos& combos) {
  const core::RecoveryProblem problem = scenario_for(family, seed);
  std::vector<std::pair<std::string, std::string>> lines;
  for (const auto& [combo, options] : combos) {
    lines.emplace_back(
        "isp/" + family + "/" + std::to_string(seed) + "/" + combo,
        isp_line(problem, options));
  }
  check_against_golden(lines);
}

void check_isp_case(const std::string& family, std::uint64_t seed) {
  check_isp(family, seed, {{"default", core::IspOptions{}}});
}

// Default options over 12 ER + 8 Bell-Canada scenarios, against the
// recorded graph::legacy-backed reference ...

class IspDifferentialEr : public ::testing::TestWithParam<int> {};

TEST_P(IspDifferentialEr, CachedMatchesLegacyReference) {
  check_isp_case("er", static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspDifferentialEr, ::testing::Range(1, 13));

class IspDifferentialBellCanada : public ::testing::TestWithParam<int> {};

TEST_P(IspDifferentialBellCanada, CachedMatchesLegacyReference) {
  check_isp_case("bell-canada", static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspDifferentialBellCanada,
                         ::testing::Range(1, 9));

// ... and every option combination on seeds 101-103 of both families.

class IspDifferentialOptions : public ::testing::TestWithParam<int> {};

TEST_P(IspDifferentialOptions, AllCombosMatchLegacyReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 100;
  check_isp("er", seed, option_combos());
  check_isp("bell-canada", seed, option_combos());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspDifferentialOptions,
                         ::testing::Range(1, 4));

// Against the recorded one-shot PathLp reference: the same default-option
// corpus, and every option combination on seeds 201-203.

class IspSessionDifferentialEr : public ::testing::TestWithParam<int> {};

TEST_P(IspSessionDifferentialEr, SessionMatchesOneShotReference) {
  check_isp_case("er", static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspSessionDifferentialEr,
                         ::testing::Range(1, 13));

class IspSessionDifferentialBellCanada
    : public ::testing::TestWithParam<int> {};

TEST_P(IspSessionDifferentialBellCanada, SessionMatchesOneShotReference) {
  check_isp_case("bell-canada", static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspSessionDifferentialBellCanada,
                         ::testing::Range(1, 9));

class IspSessionDifferentialOptions : public ::testing::TestWithParam<int> {};

TEST_P(IspSessionDifferentialOptions, AllCombosMatchOneShotReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 200;
  check_isp("er", seed, option_combos());
  check_isp("bell-canada", seed, option_combos());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspSessionDifferentialOptions,
                         ::testing::Range(1, 4));

// --- Timeline lines ----------------------------------------------------------

std::string action_token(const recovery::RepairAction& a) {
  return a.is_node ? "n" + std::to_string(a.node)
                   : "e" + std::to_string(a.edge);
}

std::string timeline_line(const recovery::TimelineResult& r) {
  std::ostringstream out;
  out << "initial=" << hex(r.initial_routed) << " final=" << hex(r.final_routed)
      << " repairs=" << r.total_repairs
      << " cost=" << hex(r.total_repair_cost)
      << " shock_breaks=" << r.shock_breaks << " stages=";
  if (r.stages.empty()) out << '-';
  for (std::size_t s = 0; s < r.stages.size(); ++s) {
    const recovery::StageRecord& rec = r.stages[s];
    out << (s > 0 ? "|" : "") << join(rec.repairs, action_token)
        << ":after=" << join_hex(rec.routed_after)
        << ":end=" << hex(rec.routed_end)
        << ":shock=" << rec.shock.broken_nodes << "/"
        << rec.shock.broken_edges << ":cost=" << hex(rec.repair_cost);
  }
  return out.str();
}

std::unique_ptr<recovery::Dynamics> make_aftershocks() {
  disruption::AftershockOptions opts;
  opts.first.variance = 40.0;
  opts.decay = 0.5;
  opts.max_shocks = 3;
  return std::make_unique<recovery::AftershockDynamics>(opts);
}

std::unique_ptr<recovery::Dynamics> make_cascade() {
  // Tight overload factor so the 3-4 unit demand flows overload the
  // ER/Bell-Canada capacities and the cascade actually fires.
  disruption::CascadeOptions opts;
  opts.overload_factor = 0.15;
  return std::make_unique<recovery::CascadeDynamics>(opts);
}

std::unique_ptr<recovery::Policy> make_policy(const std::string& name) {
  if (name == "replan") return std::make_unique<recovery::ReplanPolicy>();
  return std::make_unique<recovery::ListOrderPolicy>();
}

// The persistent measurement session under *evolving* dynamics
// (aftershocks, cascades) against the recorded one-shot PathLp reference:
// warm reuse across disruption events must not change any recorded number.

class TimelineSessionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(TimelineSessionDifferential, SessionMatchesOneShotUnderDynamics) {
  const auto base = static_cast<std::uint64_t>(GetParam());
  struct Case {
    std::string family;
    std::string policy;
    std::string dynamics;
  };
  const Case kCases[] = {
      {"er", "replan", "aftershock"},
      {"er", "list", "cascade"},
      {"bell-canada", "replan", "cascade"},
      {"bell-canada", "list", "aftershock"},
  };
  const std::uint64_t seed = base + 40;
  std::vector<std::pair<std::string, std::string>> lines;
  for (const Case& c : kCases) {
    const core::RecoveryProblem problem = scenario_for(c.family, seed);
    auto policy = make_policy(c.policy);
    auto dynamics =
        c.dynamics == "cascade" ? make_cascade() : make_aftershocks();
    recovery::TimelineOptions topt;
    topt.stage_budget = 3;
    topt.max_stages = 32;
    util::Rng rng(c.family == "er" ? base * 31 + 7 : base * 17 + 3);
    const recovery::TimelineResult result =
        recovery::Timeline(problem, *policy, *dynamics, topt).run(rng);
    lines.emplace_back("timeline/" + c.family + "/" + std::to_string(seed) +
                           "/" + c.policy + "+" + c.dynamics,
                       timeline_line(result));
  }
  check_against_golden(lines);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineSessionDifferential,
                         ::testing::Range(1, 4));

}  // namespace
