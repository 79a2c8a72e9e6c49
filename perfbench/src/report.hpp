// What one benchmark run reports, and the rules that turn a timed phase into
// end-to-end metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed phase of a closed-loop workload: a plan is one served
/// response or one direct call.
struct PlanSamples {
  /// A caller keeps the latency of every plan it completes up to this many,
  /// then a uniform sample of this many (Algorithm R), so the memory of a
  /// fast phase, and with it peak_rss_mb, does not grow with its
  /// throughput.  Only serve_hit's callers complete more.
  static constexpr std::size_t kLatencyCapacity = 16384;

  /// Latencies of completed plans (a failed operation has none): all of
  /// them, or a uniform sample once there are more than kLatencyCapacity
  /// per caller.
  std::vector<double> latency_ms;
  std::uint64_t completed = 0;
  double wall_seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< transport error, non-200, mismatch, invalid

  /// Records one completed plan.
  void add_latency(double ms);
  /// Appends another caller's samples (callers of a phase are symmetric,
  /// so their samples carry equal weight).
  void merge(const PlanSamples& other);

 private:
  std::uint64_t random_ = 0;  ///< SplitMix64 state of the reservoir draws
};

/// The quality of one plan: the paper's MinR objective, the fraction of
/// demand routed and the restoration AUC.
struct Quality {
  double repair_cost = 0.0;
  double satisfied_frac = 0.0;
  double restoration_auc = 0.0;
};

/// The mean of `plans`, summed in order.  The quality metrics are the mean
/// over a fixed set of the seed's inputs, not over the plans a timed phase
/// happened to complete (that count depends on speed), so a seed gives the
/// same quality figures on every run.
Quality mean_quality(const std::vector<Quality>& plans);

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> lines;
  /// First correctness failure, for the log.
  std::string first_failure;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { lines.push_back(line); }
  /// Marks the run incorrect, keeping the first diagnostic.
  void fail(const std::string& why);
  /// Counts one checked operation outside the timed phase (a reproduction
  /// run, a probe plan) in attempted, and in failed unless `ok`.
  void check(bool ok, const std::string& why);
};

/// Peak resident set size of this process (VmHWM), in MB.  The workloads
/// read it right after the timed phase, so it covers set-up and the timed
/// phase and leaves out the benchmark's own checks after it.
double peak_rss_mb();

/// The end-to-end metrics of BENCHMARK.json, in its order, from the timed
/// phase, the median set-up time, the quality set's mean and the peak RSS.
/// Also notes the tail percentile the sample supports (p99 / p90, nearest
/// rank, with >= 10 samples beyond it).
void add_end_to_end(RunReport& report, const PlanSamples& samples,
                    double setup_seconds, const Quality& quality,
                    double peak_rss);

/// The failed_frac line: failed / attempted over every checked operation.
std::string failed_frac_line(const RunReport& report);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const RunReport& report);

/// printf into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
