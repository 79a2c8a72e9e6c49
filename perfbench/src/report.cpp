#include "report.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "stats.hpp"

namespace perfbench {

void PlanSamples::add_latency(double ms) {
  ++completed;
  if (latency_ms.size() < kLatencyCapacity) {
    if (latency_ms.empty()) latency_ms.reserve(kLatencyCapacity);
    latency_ms.push_back(ms);
    return;
  }
  // Keep the new sample with probability kLatencyCapacity / completed, in
  // a uniformly chosen slot.
  std::uint64_t z = (random_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  const std::uint64_t slot = (z ^ (z >> 31)) % completed;
  if (slot < kLatencyCapacity) latency_ms[slot] = ms;
}

void PlanSamples::merge(const PlanSamples& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  completed += other.completed;
  attempted += other.attempted;
  failed += other.failed;
}

Quality mean_quality(const std::vector<Quality>& plans) {
  Quality mean;
  for (const Quality& q : plans) {
    mean.repair_cost += q.repair_cost;
    mean.satisfied_frac += q.satisfied_frac;
    mean.restoration_auc += q.restoration_auc;
  }
  const double n = plans.empty() ? 1.0 : static_cast<double>(plans.size());
  mean.repair_cost /= n;
  mean.satisfied_frac /= n;
  mean.restoration_auc /= n;
  return mean;
}

void RunReport::fail(const std::string& why) {
  if (correct) first_failure = why;
  correct = false;
}

void RunReport::check(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  fail(why);
}

double peak_rss_mb() {
  // VmHWM belongs to this process's address space.  getrusage's ru_maxrss
  // would not do: Linux carries the parent's peak across fork + exec, so a
  // small benchmark launched from a larger process would report the parent.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (!status) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

void add_end_to_end(RunReport& report, const PlanSamples& samples,
                    double setup_seconds, const Quality& quality,
                    double peak_rss) {
  const auto done = static_cast<double>(samples.completed);
  report.add("setup_s", setup_seconds, "s");
  report.add("plans_per_s",
             samples.wall_seconds > 0 ? done / samples.wall_seconds : 0.0,
             "1/s");
  report.add("latency_p50_ms", percentile(samples.latency_ms, 0.5), "ms");
  report.add("repair_cost_mean", quality.repair_cost, "cost");
  report.add("satisfied_frac_mean", quality.satisfied_frac, "ratio");
  report.add("restoration_auc_mean", quality.restoration_auc, "ratio");
  report.add("peak_rss_mb", peak_rss, "MB");

  const std::size_t n = samples.latency_ms.size();
  const double q = tail_quantile(n);
  if (q > 0.5) {
    report.note(format("tail: latency_p%.0f_ms = %.4f (nearest rank, %zu "
                       "samples of %llu plans, %zu beyond)",
                       q * 100, percentile(samples.latency_ms, q), n,
                       static_cast<unsigned long long>(samples.completed),
                       samples_beyond(n, q)));
  } else {
    report.note(format("tail: %zu samples support no percentile above p50",
                       n));
  }
}

std::string failed_frac_line(const RunReport& report) {
  return format("failed_frac: %llu failed / %llu attempted = %.6f",
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted),
                report.attempted > 0
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0);
}

std::string result_line(const RunReport& report) {
  std::string out = format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    // %.17g keeps every digit; JSON has no NaN/inf, so guard them.
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  out += "}}";
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  if (size > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
