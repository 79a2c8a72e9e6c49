// Per-layer probes: the benchmark's own timed calls into the public
// functions of each netrec layer, recorded as spans.
//
// probe_layers() calls graph, mcf, core and heuristics once each on a
// damaged instance; replay_request() re-runs the server-side request path of
// POST /v1/plan (util::Json parse, protocol decode, cache key, cache lookup)
// on given wire bytes.  Every workload runs both on its own inputs in a
// traced run, so each layer's per-call cost is measured on every workload.
// add_trace_metrics() turns a traced run's spans and counters into the
// per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "report.hpp"
#include "serve/plan_cache.hpp"
#include "trace.hpp"

namespace netrec::util {
class ThreadPool;
}  // namespace netrec::util

namespace perfbench {

struct ProbeOptions {
  /// The ISP configuration the workload itself uses.
  std::size_t solve_threads = 1;
  netrec::util::ThreadPool* pool = nullptr;
  /// Also solve at 1 thread and at `speedup_pool` (4 threads) and record
  /// both as "core.isp.solve_t1" / "core.isp.solve_t4" spans; the two plans
  /// must be identical (the parallel-kernel determinism contract).
  bool speedup = false;
  netrec::util::ThreadPool* speedup_pool = nullptr;
};

/// Probes every solver layer on `problem` (broken flags = the damage state).
/// The ISP plan must pass core::validate_solution; a failure is recorded in
/// `report`.  The IspStats counters are recorded as tracer counts.
void probe_layers(const netrec::core::RecoveryProblem& problem,
                  const ProbeOptions& options, Tracer& tracer,
                  std::uint64_t request, RunReport& report);

/// Replays the serve request path on `body`; returns the canonical key.
/// Throws when the bytes do not decode (they always should: the
/// benchmark generated them).
std::string replay_request(const std::string& body,
                           const netrec::core::RecoveryProblem& problem,
                           netrec::serve::PlanCache& cache, Tracer& tracer,
                           std::uint64_t request);

/// Blocking-path parts reported as "share.<part>", in order.
inline constexpr const char* kPathParts[] = {
    "serve.transport",    "serve.request",     "serve.engine",
    "core.isp.solve",     "heuristics.schedule", "recovery.policy",
    "recovery.dynamics",  "recovery.referee",
};

/// What a traced run measured beyond the probe spans; absent layers stay 0.
struct TraceSummary {
  /// Mean plan latency of the traced phase, and its blocking path split
  /// into the parts listed in kPathParts (mean ms per plan).
  double plan_ms = 0.0;
  std::vector<std::pair<std::string, double>> path_ms;
  double traced_p50_ms = 0.0;
  double untraced_p50_ms = 0.0;
  // serve counters over the timed phases
  double cache_hit_frac = 0.0;
  double cache_evictions = 0.0;
  double shed = 0.0;
  double degraded = 0.0;
  double worker_restarts = 0.0;
  double client_retries = 0.0;
  // recovery counts, mean per timeline run
  double stages = 0.0;
  double repairs = 0.0;
  double shock_breaks = 0.0;
};

/// Adds every per-layer metric of BENCHMARK.json, in its order, and prints
/// the blocking-path table with its unattributed remainder.
void add_trace_metrics(RunReport& report, const Tracer& tracer,
                       const TraceSummary& summary);

}  // namespace perfbench
