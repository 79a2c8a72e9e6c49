// Order statistics shared by the benchmark report and its tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample, q in (0, 1].
/// Returns 0 for an empty sample.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : std::min(rank, samples.size()) - 1];
}

/// Samples strictly beyond the nearest-rank position of percentile q.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// A percentile is reported only when at least `min_beyond` samples lie
/// beyond it, so it is never set by a handful of outliers.
inline bool percentile_supported(std::size_t n, double q,
                                 std::size_t min_beyond = 10) {
  return n > 0 && samples_beyond(n, q) >= min_beyond;
}

/// The highest of p99 / p90 / p50 the sample supports (0 when none).
inline double tail_quantile(std::size_t n) {
  for (double q : {0.99, 0.90, 0.50}) {
    if (percentile_supported(n, q)) return q;
  }
  return 0.0;
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

}  // namespace perfbench
