// The four benchmark workloads.  Each builds its inputs from the seed, sets
// up (several times, for a median set-up time), runs a closed loop for the
// requested seconds, checks every output, and fills a RunReport.
//
// With trace on, the run instead times an untraced half and a traced half
// of the loop (the difference of their p50 latencies is the tracing
// overhead), then probes every layer on the workload's own inputs and
// reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (generated .ntb, trace files).
  std::string workdir;
};

/// Caller threads of serve_hit, serve_miss and timeline_replan (at most
/// this many requests in flight).
inline constexpr std::size_t kClients = 4;
/// setup_s is the median of the run's set-up times.  An untraced run times
/// set-ups in two windows, one before its timed phase (the last of these
/// set-ups is the one it uses) and one after it, each until its set-ups
/// total kSetupWindowSeconds, and at least 3 set-ups in all.  The machine's
/// speed drifts over seconds, so a cheap set-up repeated in one short
/// stretch would report that stretch's speed rather than a typical one.
/// A traced run sets up once.
inline constexpr double kSetupWindowSeconds = 2.5;

/// Whether to time another set-up: `seconds` holds the set-up times so
/// far, the current window's from `window_start` on.
inline bool set_up_again(const std::vector<double>& seconds,
                         std::size_t window_start, bool last_window,
                         bool trace) {
  if (trace) return seconds.empty();
  double total = 0.0;
  for (std::size_t i = window_start; i < seconds.size(); ++i) {
    total += seconds[i];
  }
  return total < kSetupWindowSeconds || (last_window && seconds.size() < 3);
}

RunReport run_serve_hit(const RunConfig& config);
RunReport run_serve_miss(const RunConfig& config);
RunReport run_solve_scale(const RunConfig& config);
RunReport run_timeline_replan(const RunConfig& config);

}  // namespace perfbench
