// solve_scale and timeline_replan: direct in-process calls in a closed loop
// (a planning tool waits for each plan before asking for the next).
//
// solve_scale: a Barabasi-Albert graph written as .ntb and loaded in set-up,
// far-apart demands, 30% random failures per damage state; each plan is
// core::IspSolver::solve on 4 intra-solve threads plus
// heuristics::schedule_repairs, and each must pass
// core::validate_solution (checked off the timed path).
//
// timeline_replan: recovery::Timeline::run with ReplanPolicy under
// AftershockDynamics on a feasible bell_canada problem, from kClients caller
// threads (planning tools); each run starts from its own gaussian disaster
// with its own seed.  A run repeated with the same seed must reproduce its
// result bit for bit.
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/isp.hpp"
#include "disruption/disruption.hpp"
#include "graph/ntb.hpp"
#include "heuristics/schedule.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "scenario/scenario.hpp"
#include "serve/plan_cache.hpp"
#include "stats.hpp"
#include "topology/generator.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ns = netrec;

namespace {

// --- solve_scale ------------------------------------------------------------

constexpr std::size_t kScaleNodes = 8000;
constexpr std::size_t kScaleAttach = 2;
/// The network and its demand placement are fixed, as for a planner that
/// serves one network (netrecd's preload fixes them the same way); the run
/// seed draws the disasters.
constexpr std::uint64_t kScaleTopologySeed = 1;
constexpr std::uint64_t kScaleDemandSeed = 7;
constexpr std::size_t kScalePairs = 12;
constexpr double kScaleDemand = 8.0;
constexpr double kScaleFailure = 0.30;
constexpr std::size_t kScaleThreads = 4;
/// Damage states drawn in set-up; a run longer than this many plans cycles.
constexpr std::size_t kScaleStates = 64;
/// The quality metrics are the mean over the plans of states 0..N-1; a run
/// goes on until it has them.
constexpr std::size_t kScaleQualityStates = 12;
constexpr std::size_t kScaleProbeStates = 2;

// --- timeline_replan ----------------------------------------------------------

constexpr std::size_t kTimelinePairs = 8;
constexpr double kTimelineDemand = 6.0;
/// Fixed like solve_scale's: the seed draws the disasters and aftershocks.
constexpr std::uint64_t kTimelineDemandSeed = 7;
constexpr std::size_t kTimelineBudget = 2;
constexpr std::size_t kTimelineMaxStages = 32;
constexpr std::size_t kTimelineStates = 512;
/// Initial disasters: the paper's default scene, the gaussian model's
/// default variance centred on the node barycentre; runs differ in the
/// random draw of what fails (serve_miss covers epicentres and sizes).
const ns::disruption::GaussianDisasterOptions kTimelineDisaster{};
/// Runs repeated after the timed phase to check bit-for-bit reproduction.
constexpr std::size_t kTimelineRepeats = 8;
/// The quality metrics are the mean over runs 0..N-1; each caller goes on
/// until it has made its share of them.
constexpr std::size_t kTimelineQualityRuns = 64;
constexpr std::size_t kTimelineProbeStates = 8;

/// One timed call: its latency and quality.
struct Plan {
  double seconds = 0.0;
  Quality quality;
};

/// One caller: runs `call(k)` for k = next, next + 1, ... until the calls'
/// summed time reaches `seconds` and plans 0..quality.size()-1 are in;
/// plan k's quality goes to quality[k].  Checks and damage application
/// between calls are not timed, so wall_seconds is the summed call time.
template <typename Call>
PlanSamples closed_loop(double seconds, std::size_t& next,
                        std::vector<Quality>& quality, const Call& call) {
  PlanSamples samples;
  while (samples.wall_seconds < seconds || next < quality.size()) {
    const std::size_t k = next++;
    ++samples.attempted;
    const std::optional<Plan> plan = call(k);
    if (!plan) {
      ++samples.failed;
      continue;
    }
    samples.wall_seconds += plan->seconds;
    samples.add_latency(plan->seconds * 1e3);
    if (k < quality.size()) quality[k] = plan->quality;
  }
  return samples;
}

/// kClients callers for `seconds` of wall time: caller c runs
/// `call(c, its copy of problem, k)` for k = c + kClients * next[c], with
/// next[c] advancing, and goes on past `seconds` until it has made its runs
/// among 0..quality.size()-1; run k's quality goes to quality[k].  A thrown
/// exception stops its caller and lands in `error`.
template <typename Call>
PlanSamples parallel_loop(double seconds, std::vector<std::size_t>& next,
                          const ns::core::RecoveryProblem& problem,
                          std::vector<Quality>& quality, const Call& call,
                          std::string& error) {
  std::vector<PlanSamples> per_caller(kClients);
  std::vector<std::string> errors(kClients);
  const double start = now_seconds();
  const double stop = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PlanSamples& mine = per_caller[c];
      try {
        ns::core::RecoveryProblem local = problem;
        while (now_seconds() < stop ||
               c + kClients * next[c] < quality.size()) {
          const std::size_t k = c + kClients * next[c]++;
          ++mine.attempted;
          const std::optional<Plan> plan = call(c, local, k);
          if (!plan) {
            ++mine.failed;
            continue;
          }
          mine.add_latency(plan->seconds * 1e3);
          if (k < quality.size()) quality[k] = plan->quality;
        }
      } catch (const std::exception& e) {
        ++mine.failed;
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PlanSamples out;
  for (const PlanSamples& mine : per_caller) out.merge(mine);
  out.wall_seconds = now_seconds() - start;
  for (const std::string& e : errors) {
    if (!e.empty() && error.empty()) error = e;
  }
  return out;
}

/// Mean self time per root span of `name`'s children and the root itself.
std::vector<std::pair<std::string, double>> path_from_spans(
    const Tracer& tracer, const std::string& root_name,
    const std::vector<std::pair<std::string, std::string>>& parts,
    double& plan_ms) {
  const std::map<std::string, SpanTotals> totals =
      totals_by_name(tracer.spans());
  const auto roots = totals.find(root_name);
  const double n =
      roots == totals.end() ? 1.0 : static_cast<double>(roots->second.calls);
  plan_ms = roots == totals.end() ? 0.0 : roots->second.total / n * 1e3;
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [span, part] : parts) {
    const auto it = totals.find(span);
    out.emplace_back(part, it == totals.end() ? 0.0 : it->second.self / n * 1e3);
  }
  return out;
}

void finish(RunReport& report, const PlanSamples& untraced,
            const PlanSamples* traced, const std::vector<double>& setup,
            const std::vector<Quality>& quality, double peak_rss) {
  const std::uint64_t attempted =
      untraced.attempted + (traced ? traced->attempted : 0);
  const std::uint64_t failed = untraced.failed + (traced ? traced->failed : 0);
  report.attempted += attempted;
  report.failed += failed;
  if (failed > 0) {
    report.fail(format("%llu plans failed their check",
                       static_cast<unsigned long long>(failed)));
  }
  report.note(format("timed: %llu plans, %llu failed",
                     static_cast<unsigned long long>(attempted),
                     static_cast<unsigned long long>(failed)));
  if (!traced) {
    add_end_to_end(report, untraced, median(setup), mean_quality(quality),
                   peak_rss);
  }
}

// --- solve_scale --------------------------------------------------------------

struct Scale {
  ns::core::RecoveryProblem problem;
  std::vector<DamageState> states;
  std::optional<ns::util::ThreadPool> pool_storage;
  ns::util::ThreadPool* pool = nullptr;
};

void set_up_scale(Scale& s, const std::string& ntb, std::uint64_t seed,
                  Tracer* tracer) {
  {
    const ScopedSpan span(tracer, "graph.topology_load", 0);
    s.problem.graph = ns::graph::load_ntb_file(ntb);
  }
  {
    const ScopedSpan span(tracer, "scenario.far_apart_demands", 0);
    ns::util::Rng rng(kScaleDemandSeed);
    s.problem.demands = ns::scenario::far_apart_demands(
        s.problem.graph, kScalePairs, kScaleDemand, rng);
  }
  s.states.clear();
  for (std::size_t i = 0; i < kScaleStates; ++i) {
    const ScopedSpan span(tracer, "disruption.draw", i);
    ns::util::Rng rng(derive_seed(seed, 1000 + i));
    s.states.push_back(random_state(s.problem.graph, kScaleFailure, rng));
  }
  s.pool = ns::util::ThreadPool::acquire(s.pool_storage, kScaleThreads,
                                         nullptr);
}

}  // namespace

RunReport run_solve_scale(const RunConfig& config) {
  RunReport report;
  Tracer tracer;
  Tracer* traced_setup = config.trace ? &tracer : nullptr;

  // Input generation (not set-up): the network, written once as .ntb.
  const std::string ntb = config.workdir + "/ba" +
                          std::to_string(kScaleNodes) + "-seed" +
                          std::to_string(kScaleTopologySeed) + ".ntb";
  {
    ns::topology::BarabasiAlbertOptions options;
    options.nodes = kScaleNodes;
    options.attach = kScaleAttach;
    ns::graph::save_ntb_file(
        ns::topology::make_topology({options, kScaleTopologySeed}), ntb);
  }

  std::optional<Scale> scale;  // the pool pins Scale in place
  std::vector<double> setup;
  while (set_up_again(setup, 0, false, config.trace)) {
    scale.reset();
    const double t0 = now_seconds();
    set_up_scale(scale.emplace(), ntb, config.seed, traced_setup);
    setup.push_back(now_seconds() - t0);
  }
  Scale& s = *scale;
  report.note(format("set-up: %zu nodes, %zu edges, %zu demands, %zu damage "
                     "states",
                     s.problem.graph.num_nodes(), s.problem.graph.num_edges(),
                     s.problem.demands.size(), s.states.size()));

  ns::core::IspOptions isp;
  isp.solve_threads = kScaleThreads;
  isp.pool = s.pool;
  Tracer phase_tracer;
  bool tracing = false;
  const auto call = [&](std::size_t k) -> std::optional<Plan> {
    const DamageState& state = s.states[k % s.states.size()];
    apply_damage(s.problem.graph, state);
    Tracer* t = tracing ? &phase_tracer : nullptr;
    const double t0 = now_seconds();
    ns::core::RecoverySolution solution;
    ns::heuristics::RecoverySchedule schedule;
    {
      const ScopedSpan root(t, "plan", k);
      {
        const ScopedSpan span(t, "core.isp.solve", k, root.id());
        solution = ns::core::IspSolver(s.problem, isp).solve();
      }
      const ScopedSpan span(t, "heuristics.schedule", k, root.id());
      schedule = ns::heuristics::schedule_repairs(s.problem, solution);
    }
    const double seconds = now_seconds() - t0;
    const std::string verdict =
        ns::core::validate_solution(s.problem, solution);
    apply_damage(s.problem.graph, state, false);
    if (!verdict.empty()) {
      report.fail("invalid ISP plan: " + verdict);
      return std::nullopt;
    }
    return Plan{seconds, {solution.repair_cost, solution.satisfied_fraction,
                          schedule.restoration_auc()}};
  };

  // A traced run reports no quality, so it needs no quality set.
  std::vector<Quality> quality(config.trace ? 0 : kScaleQualityStates);
  std::size_t next = 0;
  const PlanSamples untraced = closed_loop(
      config.trace ? config.seconds / 2 : config.seconds, next, quality, call);
  const double peak_rss = peak_rss_mb();
  if (!config.trace) {
    for (const std::size_t start = setup.size();
         set_up_again(setup, start, true, config.trace);) {
      Scale spare;
      const double t0 = now_seconds();
      set_up_scale(spare, ntb, config.seed, nullptr);
      setup.push_back(now_seconds() - t0);
    }
    finish(report, untraced, nullptr, setup, quality, peak_rss);
    return report;
  }
  tracing = true;
  const PlanSamples traced =
      closed_loop(config.seconds / 2, next, quality, call);
  finish(report, untraced, &traced, setup, quality, peak_rss);

  TraceSummary summary;
  summary.path_ms = path_from_spans(
      phase_tracer, "plan",
      {{"core.isp.solve", "core.isp.solve"},
       {"heuristics.schedule", "heuristics.schedule"}},
      summary.plan_ms);
  summary.traced_p50_ms = percentile(traced.latency_ms, 0.5);
  summary.untraced_p50_ms = percentile(untraced.latency_ms, 0.5);

  for (std::size_t i = 0; i < kScaleProbeStates; ++i) {
    apply_damage(s.problem.graph, s.states[i]);
    ProbeOptions options;
    options.solve_threads = kScaleThreads;
    options.pool = s.pool;
    options.speedup = i == 0;
    options.speedup_pool = s.pool;
    probe_layers(s.problem, options, tracer, i, report);
    apply_damage(s.problem.graph, s.states[i], false);
  }
  // Replay one request's serve path on this network's damage state, as a
  // netrecd preloaded with it would decode it.
  ns::serve::PlanCache cache(4096);
  for (std::size_t i = 0; i < kScaleProbeStates; ++i) {
    replay_request(request_body(s.states[i]), s.problem, cache, tracer, i);
  }

  tracer.merge(phase_tracer);
  tracer.write_json(config.workdir + "/trace-solve_scale.json");
  add_trace_metrics(report, tracer, summary);
  return report;
}

namespace {

// --- timeline_replan ------------------------------------------------------------

/// Forwarding wrappers that time each call into the policy and dynamics.
class TracedPolicy : public ns::recovery::Policy {
 public:
  TracedPolicy(ns::recovery::Policy& inner, Tracer* tracer, int parent,
               std::uint64_t request)
      : inner_(inner), tracer_(tracer), parent_(parent), request_(request) {}
  std::string name() const override { return inner_.name(); }
  std::vector<ns::recovery::RepairAction> plan_stage(
      const ns::core::RecoveryProblem& problem, std::size_t stage,
      std::size_t budget, ns::util::Rng& rng) override {
    const ScopedSpan span(tracer_, "recovery.policy.plan_stage", request_,
                          parent_);
    return inner_.plan_stage(problem, stage, budget, rng);
  }

 private:
  ns::recovery::Policy& inner_;
  Tracer* tracer_;
  int parent_;
  std::uint64_t request_;
};

class TracedDynamics : public ns::recovery::Dynamics {
 public:
  TracedDynamics(ns::recovery::Dynamics& inner, Tracer* tracer, int parent,
                 std::uint64_t request)
      : inner_(inner), tracer_(tracer), parent_(parent), request_(request) {}
  std::string name() const override { return inner_.name(); }
  ns::disruption::DisruptionReport advance(
      ns::graph::Graph& g, const std::vector<ns::mcf::Demand>& demands,
      std::size_t stage, ns::util::Rng& rng) override {
    const ScopedSpan span(tracer_, "recovery.dynamics.advance", request_,
                          parent_);
    return inner_.advance(g, demands, stage, rng);
  }
  bool exhausted() const override { return inner_.exhausted(); }

 private:
  ns::recovery::Dynamics& inner_;
  Tracer* tracer_;
  int parent_;
  std::uint64_t request_;
};

ns::disruption::AftershockOptions aftershocks() {
  ns::disruption::AftershockOptions options;
  options.first.variance = 35.0;
  options.decay = 0.5;
  options.max_shocks = 3;
  return options;
}

/// Every field of a TimelineResult except wall time, floats in hex, so two
/// runs compare bit for bit.
std::string fingerprint(const ns::recovery::TimelineResult& r) {
  std::string out = format("%s|%s|%a|%a|%a|%zu|%a|%zu|", r.policy.c_str(),
                           r.dynamics.c_str(), r.total_demand,
                           r.initial_routed, r.final_routed, r.total_repairs,
                           r.total_repair_cost, r.shock_breaks);
  for (const ns::recovery::StageRecord& stage : r.stages) {
    out += format("[%zu %a %a %zu %zu", stage.stage, stage.routed_end,
                  stage.repair_cost, stage.shock.broken_nodes,
                  stage.shock.broken_edges);
    for (std::size_t i = 0; i < stage.repairs.size(); ++i) {
      const ns::recovery::RepairAction& a = stage.repairs[i];
      out += format(" %c%d:%a", a.is_node ? 'n' : 'e',
                    a.is_node ? a.node : a.edge, stage.routed_after[i]);
    }
    out += "]";
  }
  return out;
}

struct TimelineInputs {
  ns::core::RecoveryProblem problem;
  bool feasible = false;
  std::vector<DamageState> states;
};

void set_up_timeline(TimelineInputs& t, std::uint64_t seed, Tracer* tracer) {
  // The first demand placement that is routable with every element
  // repaired (the paper's feasibility premise).
  for (std::uint64_t attempt = 0; attempt < 16 && !t.feasible; ++attempt) {
    t.problem = bell_canada_problem(kTimelinePairs, kTimelineDemand,
                                    kTimelineDemandSeed + attempt, tracer);
    const ScopedSpan span(tracer, "core.feasibility", attempt);
    t.feasible = t.problem.feasible_when_fully_repaired();
  }
  t.states.clear();
  ns::graph::Graph scratch = t.problem.graph;
  for (std::size_t i = 0; i < kTimelineStates; ++i) {
    const ScopedSpan span(tracer, "disruption.draw", i);
    ns::util::Rng rng(derive_seed(seed, 2000 + i));
    ns::disruption::gaussian_disaster(scratch, kTimelineDisaster, rng);
    t.states.push_back(take_damage(scratch));
  }
}

}  // namespace

RunReport run_timeline_replan(const RunConfig& config) {
  RunReport report;
  Tracer tracer;
  Tracer* traced_setup = config.trace ? &tracer : nullptr;

  TimelineInputs t;
  std::vector<double> setup;
  while (set_up_again(setup, 0, false, config.trace)) {
    t = TimelineInputs{};
    const double t0 = now_seconds();
    set_up_timeline(t, config.seed, traced_setup);
    setup.push_back(now_seconds() - t0);
  }
  report.check(t.feasible, "no feasible demand placement found");
  report.note(format("set-up: %zu demands, %zu initial disasters",
                     t.problem.demands.size(), t.states.size()));

  ns::recovery::TimelineOptions options;
  options.stage_budget = kTimelineBudget;
  options.max_stages = kTimelineMaxStages;

  // kClients planning tools in a closed loop; caller c runs k = c,
  // c + kClients, ... on its own copy of the problem, so which runs each
  // caller makes does not depend on thread timing.
  std::vector<Tracer> phase_tracers(kClients);
  bool tracing = false;
  std::vector<std::string> fingerprints(kTimelineRepeats);
  struct Counts {
    double stages = 0.0;
    double repairs = 0.0;
    double shock_breaks = 0.0;
  };
  std::vector<Counts> counts(kClients);
  const auto run = [&](ns::core::RecoveryProblem& problem, Tracer* tr,
                       std::size_t k, ns::recovery::TimelineResult& result) {
    const DamageState& state = t.states[k % t.states.size()];
    apply_damage(problem.graph, state);
    const double t0 = now_seconds();
    {
      const ScopedSpan root(tr, "plan", k);
      ns::recovery::ReplanPolicy policy;
      ns::recovery::AftershockDynamics dynamics(aftershocks());
      const ScopedSpan timeline(tr, "recovery.timeline.run", k, root.id());
      TracedPolicy traced_policy(policy, tr, timeline.id(), k);
      TracedDynamics traced_dynamics(dynamics, tr, timeline.id(), k);
      ns::util::Rng rng(derive_seed(config.seed, 5000 + k));
      result = ns::recovery::Timeline(problem, traced_policy, traced_dynamics,
                                      options)
                   .run(rng);
    }
    const double seconds = now_seconds() - t0;
    apply_damage(problem.graph, state, false);
    return seconds;
  };
  const auto call = [&](std::size_t c, ns::core::RecoveryProblem& problem,
                        std::size_t k) -> std::optional<Plan> {
    ns::recovery::TimelineResult result;
    const double seconds =
        run(problem, tracing ? &phase_tracers[c] : nullptr, k, result);
    if (k < kTimelineRepeats) fingerprints[k] = fingerprint(result);
    if (!(result.final_routed >= 0.0 &&
          result.final_routed <= result.total_demand * (1 + 1e-9))) {
      return std::nullopt;
    }
    if (tracing) {
      counts[c].stages += static_cast<double>(result.stages.size());
      counts[c].repairs += static_cast<double>(result.total_repairs);
      counts[c].shock_breaks += static_cast<double>(result.shock_breaks);
    }
    return Plan{seconds,
                {result.total_repair_cost,
                 result.total_demand > 0
                     ? result.final_routed / result.total_demand
                     : 1.0,
                 result.restoration_auc(kTimelineMaxStages)}};
  };

  // A traced run reports no quality, so it needs no quality set.
  std::vector<Quality> quality(config.trace ? 0 : kTimelineQualityRuns);
  std::vector<std::size_t> next(kClients, 0);
  std::string error;
  const PlanSamples untraced =
      parallel_loop(config.trace ? config.seconds / 2 : config.seconds, next,
                    t.problem, quality, call, error);
  std::optional<PlanSamples> traced;
  if (config.trace) {
    tracing = true;
    traced = parallel_loop(config.seconds / 2, next, t.problem, quality, call,
                           error);
    tracing = false;
  }
  const double peak_rss = peak_rss_mb();
  if (!error.empty()) report.fail(error);
  for (const std::size_t start = setup.size();
       set_up_again(setup, start, true, config.trace);) {
    TimelineInputs spare;
    const double t0 = now_seconds();
    set_up_timeline(spare, config.seed, nullptr);
    setup.push_back(now_seconds() - t0);
  }

  // Same seed, same result: repeat the first runs bit for bit.
  ns::core::RecoveryProblem again_problem = t.problem;
  std::size_t reproduced = 0;
  for (std::size_t k = 0; k < fingerprints.size(); ++k) {
    if (fingerprints[k].empty()) continue;
    ns::recovery::TimelineResult again;
    run(again_problem, nullptr, k, again);
    report.check(fingerprint(again) == fingerprints[k],
                 format("timeline run %zu did not reproduce its result", k));
    ++reproduced;
  }
  report.note(format("reproduced %zu timeline runs bit for bit", reproduced));

  finish(report, untraced, traced ? &*traced : nullptr, setup, quality,
         peak_rss);
  if (!config.trace) return report;

  Tracer phase_tracer;
  for (const Tracer& tr : phase_tracers) phase_tracer.merge(tr);
  TraceSummary summary;
  summary.path_ms = path_from_spans(
      phase_tracer, "plan",
      {{"recovery.policy.plan_stage", "recovery.policy"},
       {"recovery.dynamics.advance", "recovery.dynamics"},
       {"recovery.timeline.run", "recovery.referee"}},
      summary.plan_ms);
  const auto n = static_cast<double>(traced->completed);
  for (const Counts& c : counts) {
    summary.stages += n > 0 ? c.stages / n : 0.0;
    summary.repairs += n > 0 ? c.repairs / n : 0.0;
    summary.shock_breaks += n > 0 ? c.shock_breaks / n : 0.0;
  }
  summary.traced_p50_ms = percentile(traced->latency_ms, 0.5);
  summary.untraced_p50_ms = percentile(untraced.latency_ms, 0.5);
  const auto totals = totals_by_name(phase_tracer.spans());
  for (const char* name : {"recovery.timeline.run",
                           "recovery.policy.plan_stage",
                           "recovery.dynamics.advance"}) {
    const auto it = totals.find(name);
    if (it == totals.end()) continue;
    report.note(format("%s: %zu calls, %.4f ms per call, self %.4f ms per "
                       "call",
                       name, it->second.calls,
                       it->second.total / static_cast<double>(it->second.calls) *
                           1e3,
                       it->second.self / static_cast<double>(it->second.calls) *
                           1e3));
  }

  std::optional<ns::util::ThreadPool> pool_storage;
  ns::util::ThreadPool* pool4 =
      ns::util::ThreadPool::acquire(pool_storage, 4, nullptr);
  ns::serve::PlanCache cache(4096);
  for (std::size_t i = 0; i < kTimelineProbeStates; ++i) {
    apply_damage(t.problem.graph, t.states[i]);
    ProbeOptions probe;
    probe.speedup = i == 0;
    probe.speedup_pool = pool4;
    probe_layers(t.problem, probe, tracer, i, report);
    apply_damage(t.problem.graph, t.states[i], false);
    replay_request(request_body(t.states[i]), t.problem, cache, tracer, i);
  }

  tracer.merge(phase_tracer);
  tracer.write_json(config.workdir + "/trace-timeline_replan.json");
  add_trace_metrics(report, tracer, summary);
  return report;
}

}  // namespace perfbench
