#include "probes.hpp"

#include <map>
#include <optional>

#include "core/centrality.hpp"
#include "core/isp.hpp"
#include "graph/dijkstra.hpp"
#include "graph/maxflow.hpp"
#include "graph/view.hpp"
#include "heuristics/schedule.hpp"
#include "mcf/routing.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace ns = netrec;

namespace {

bool same_plan(const ns::core::RecoverySolution& a,
               const ns::core::RecoverySolution& b) {
  return a.repaired_nodes == b.repaired_nodes &&
         a.repaired_edges == b.repaired_edges &&
         a.repair_cost == b.repair_cost &&
         a.satisfied_fraction == b.satisfied_fraction;
}

/// The per-layer metrics derived from probe and replay spans (per-call
/// means, speed-up, ISP counts), in BENCHMARK.json's order.
void add_layer_metrics(RunReport& report, const Tracer& tracer) {
  const std::map<std::string, SpanTotals> totals =
      totals_by_name(tracer.spans());
  const auto per_call = [&](const std::string& name, double scale) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0) return 0.0;
    return it->second.total / static_cast<double>(it->second.calls) * scale;
  };
  const struct {
    const char* span;
    const char* metric;
    double scale;
    const char* unit;
  } kTimes[] = {
      {"graph.topology_load", "graph.topology_load_ms", 1e3, "ms"},
      {"scenario.far_apart_demands", "scenario.far_apart_demands_ms", 1e3,
       "ms"},
      {"disruption.draw", "disruption.draw_ms", 1e3, "ms"},
      {"graph.view_build", "graph.view_build_ms", 1e3, "ms"},
      {"graph.max_flow", "graph.max_flow_ms", 1e3, "ms"},
      {"graph.dijkstra", "graph.dijkstra_ms", 1e3, "ms"},
      {"core.centrality", "core.centrality_ms", 1e3, "ms"},
      {"mcf.max_routed", "mcf.max_routed_ms", 1e3, "ms"},
      {"mcf.is_routable", "mcf.is_routable_ms", 1e3, "ms"},
      {"core.isp.solve", "core.isp.solve_ms", 1e3, "ms"},
      {"heuristics.schedule", "heuristics.schedule_ms", 1e3, "ms"},
      {"core.validate", "core.validate_ms", 1e3, "ms"},
      {"util.json.parse", "util.json.parse_us", 1e6, "us"},
      {"serve.protocol.parse", "serve.protocol.parse_us", 1e6, "us"},
      {"serve.protocol.key", "serve.protocol.key_us", 1e6, "us"},
      {"serve.plan_cache.find", "serve.plan_cache.find_us", 1e6, "us"},
      {"util.json.dump", "util.json.dump_us", 1e6, "us"},
  };
  for (const auto& t : kTimes) {
    report.add(t.metric, per_call(t.span, t.scale), t.unit);
  }
  const double t1 = per_call("core.isp.solve_t1", 1.0);
  const double t4 = per_call("core.isp.solve_t4", 1.0);
  report.add("core.isp.speedup_t4", t4 > 0 ? t1 / t4 : 0.0, "ratio");

  // ISP counters: mean per probed solve.
  for (const char* name : {"core.isp.iterations", "core.isp.splits",
                           "core.isp.prunes", "core.isp.direct_edge_repairs",
                           "core.isp.watchdog"}) {
    const auto it = tracer.counts().find(name);
    report.add(name, it == tracer.counts().end() ? 0.0 : mean(it->second),
               "count");
  }
}

}  // namespace

void probe_layers(const ns::core::RecoveryProblem& problem,
                  const ProbeOptions& options, Tracer& tracer,
                  std::uint64_t request, RunReport& report) {
  const ScopedSpan root(&tracer, "probe", request);
  const int parent = root.id();

  std::optional<ns::graph::GraphView> working;
  {
    const ScopedSpan span(&tracer, "graph.view_build", request, parent);
    working.emplace(ns::graph::GraphView::working(problem.graph));
  }
  for (const ns::mcf::Demand& demand : problem.demands) {
    {
      const ScopedSpan span(&tracer, "graph.max_flow", request, parent);
      ns::graph::max_flow(*working, demand.source, demand.target);
    }
    {
      const ScopedSpan span(&tracer, "graph.dijkstra", request, parent);
      ns::graph::dijkstra(*working, demand.source);
    }
  }
  {
    const ns::graph::GraphView full = ns::graph::GraphView::build(problem.graph);
    const ScopedSpan span(&tracer, "core.centrality", request, parent);
    ns::core::demand_based_centrality(full, problem.demands);
  }
  {
    const ScopedSpan span(&tracer, "mcf.max_routed", request, parent);
    ns::mcf::max_routed_flow(*working, problem.demands);
  }
  {
    const ScopedSpan span(&tracer, "mcf.is_routable", request, parent);
    ns::mcf::is_routable(*working, problem.demands);
  }

  ns::core::IspOptions isp;
  isp.solve_threads = options.solve_threads;
  isp.pool = options.pool;
  ns::core::RecoverySolution solution;
  {
    ns::core::IspSolver solver(problem, isp);
    {
      const ScopedSpan span(&tracer, "core.isp.solve", request, parent);
      solution = solver.solve();
    }
    const ns::core::IspStats& stats = solver.stats();
    const auto count = [&](const char* name, std::size_t value) {
      tracer.count(std::string("core.isp.") + name,
                   static_cast<double>(value));
    };
    count("iterations", stats.iterations);
    count("splits", stats.splits);
    count("prunes", stats.prunes);
    count("direct_edge_repairs", stats.direct_edge_repairs);
    count("watchdog", stats.watchdog_activations);
  }
  {
    const ScopedSpan span(&tracer, "heuristics.schedule", request, parent);
    ns::heuristics::schedule_repairs(problem, solution);
  }
  std::string verdict;
  {
    const ScopedSpan span(&tracer, "core.validate", request, parent);
    verdict = ns::core::validate_solution(problem, solution);
  }
  report.check(verdict.empty(), "probe plan invalid: " + verdict);

  if (options.speedup) {
    ns::core::IspOptions serial;
    ns::core::RecoverySolution a;
    ns::core::RecoverySolution b;
    {
      const ScopedSpan span(&tracer, "core.isp.solve_t1", request, parent);
      a = ns::core::IspSolver(problem, serial).solve();
    }
    ns::core::IspOptions parallel;
    parallel.solve_threads = 4;
    parallel.pool = options.speedup_pool;
    {
      const ScopedSpan span(&tracer, "core.isp.solve_t4", request, parent);
      b = ns::core::IspSolver(problem, parallel).solve();
    }
    report.check(same_plan(a, b),
                 "ISP plan differs between 1 and 4 solve threads");
  }
}

std::string replay_request(const std::string& body,
                           const ns::core::RecoveryProblem& problem,
                           ns::serve::PlanCache& cache, Tracer& tracer,
                           std::uint64_t request) {
  const ScopedSpan root(&tracer, "serve.replay", request);
  const int parent = root.id();
  ns::util::Json parsed;
  {
    const ScopedSpan span(&tracer, "util.json.parse", request, parent);
    parsed = ns::util::Json::parse(body);
  }
  ns::serve::PlanRequest plan;
  {
    const ScopedSpan span(&tracer, "serve.protocol.parse", request, parent);
    plan = ns::serve::parse_plan_request(parsed, problem);
  }
  std::string key;
  {
    const ScopedSpan span(&tracer, "serve.protocol.key", request, parent);
    key = ns::serve::canonical_key(plan);
    ns::serve::fingerprint(plan);
  }
  {
    const ScopedSpan span(&tracer, "serve.plan_cache.find", request, parent);
    cache.find(key);
  }
  {
    const ScopedSpan span(&tracer, "util.json.dump", request, parent);
    parsed.dump();
  }
  return key;
}

void add_trace_metrics(RunReport& report, const Tracer& tracer,
                       const TraceSummary& summary) {
  add_layer_metrics(report, tracer);
  report.add("serve.plan_cache.hit_frac", summary.cache_hit_frac, "ratio");
  report.add("serve.plan_cache.evictions", summary.cache_evictions, "count");
  report.add("serve.server.shed", summary.shed, "count");
  report.add("serve.server.degraded", summary.degraded, "count");
  report.add("serve.server.worker_restarts", summary.worker_restarts,
             "count");
  report.add("serve.client.retries", summary.client_retries, "count");
  report.add("recovery.stages", summary.stages, "count");
  report.add("recovery.repairs", summary.repairs, "count");
  report.add("recovery.shock_breaks", summary.shock_breaks, "count");

  // Blocking path: each part's share of the traced mean plan latency; what
  // the parts do not cover is the unattributed remainder.
  report.note(format("blocking path (traced mean plan %.4f ms):",
                     summary.plan_ms));
  double attributed = 0.0;
  for (const char* part : kPathParts) {
    double ms = 0.0;
    for (const auto& [name, value] : summary.path_ms) {
      if (name == part) ms += value;
    }
    attributed += ms;
    const double share = summary.plan_ms > 0 ? ms / summary.plan_ms : 0.0;
    report.add(std::string("share.") + part, share, "ratio");
    if (ms != 0.0) {
      report.note(format("  %-28s %12.4f ms  %6.1f%%", part, ms,
                         share * 100));
    }
  }
  const double rest = summary.plan_ms - attributed;
  const double rest_share =
      summary.plan_ms > 0 ? rest / summary.plan_ms : 0.0;
  report.add("share.unattributed", rest_share, "ratio");
  report.note(format("  %-28s %12.4f ms  %6.1f%%", "unattributed", rest,
                     rest_share * 100));

  report.add("trace.latency_p50_ms", summary.traced_p50_ms, "ms");
  report.add("trace.overhead_ms",
             summary.traced_p50_ms - summary.untraced_p50_ms, "ms");
  report.note(format("tracing overhead: p50 %.4f ms traced vs %.4f ms "
                     "untraced",
                     summary.traced_p50_ms, summary.untraced_p50_ms));
}

}  // namespace perfbench
