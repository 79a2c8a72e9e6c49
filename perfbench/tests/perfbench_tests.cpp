// Tests of the benchmark's own machinery: percentiles and the sample rule,
// the bounded latency sample, self time from nested spans, and seeded input
// generation.
//
//   .bench_build/perfbench/perfbench_tests   (exit 0 = all passed)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "serve/preload.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/flags.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile_nearest_rank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(perfbench::percentile(v, 0.50) == 50);
  CHECK(perfbench::percentile(v, 0.90) == 90);
  CHECK(perfbench::percentile(v, 0.99) == 99);
  CHECK(perfbench::percentile(v, 1.00) == 100);
  CHECK(perfbench::percentile({7.0}, 0.99) == 7.0);
  CHECK(perfbench::percentile({}, 0.5) == 0.0);
  // ceil(0.5 * 5) = 3rd smallest.
  CHECK(perfbench::percentile({5, 1, 4, 2, 3}, 0.5) == 3);
  CHECK(perfbench::median({1, 2, 3, 4}) == 2);
}

void test_percentile_needs_ten_beyond() {
  // p99 of n: rank ceil(0.99 n); needs n - rank >= 10.
  CHECK(!perfbench::percentile_supported(999, 0.99));
  CHECK(perfbench::percentile_supported(1000, 0.99));
  CHECK(perfbench::samples_beyond(1000, 0.99) == 10);
  CHECK(!perfbench::percentile_supported(99, 0.90));
  CHECK(perfbench::percentile_supported(100, 0.90));
  CHECK(!perfbench::percentile_supported(19, 0.50));
  CHECK(perfbench::percentile_supported(20, 0.50));
  CHECK(perfbench::tail_quantile(5000) == 0.99);
  CHECK(perfbench::tail_quantile(500) == 0.90);
  CHECK(perfbench::tail_quantile(50) == 0.50);
  CHECK(perfbench::tail_quantile(7) == 0.0);
}

void test_latency_sample_is_bounded() {
  using perfbench::PlanSamples;
  PlanSamples small;
  for (int i = 1; i <= 100; ++i) small.add_latency(i);
  CHECK(small.completed == 100);
  CHECK(small.latency_ms.size() == 100);
  CHECK(perfbench::percentile(small.latency_ms, 0.5) == 50);

  // Past the capacity the sample keeps its size and stays uniform: the
  // median of 0..n-1 is still about n / 2.
  PlanSamples big;
  const std::size_t n = 8 * PlanSamples::kLatencyCapacity;
  for (std::size_t i = 0; i < n; ++i) big.add_latency(static_cast<double>(i));
  CHECK(big.completed == n);
  CHECK(big.latency_ms.size() == PlanSamples::kLatencyCapacity);
  const double p50 = perfbench::percentile(big.latency_ms, 0.5);
  CHECK(std::fabs(p50 / static_cast<double>(n) - 0.5) < 0.02);

  PlanSamples merged = small;
  merged.merge(big);
  CHECK(merged.completed == n + 100);
  CHECK(merged.latency_ms.size() == PlanSamples::kLatencyCapacity + 100);
}

void test_self_time_nested_spans() {
  perfbench::Tracer t;
  const int root = t.record("root", 0.0, 10.0, -1, 1);
  // Two overlapping children [1,4] and [3,6] cover [1,6]; a third [8,12]
  // sticks out of the root and is clipped to [8,10].
  const int a = t.record("a", 1.0, 4.0, root, 1);
  t.record("b", 3.0, 6.0, root, 1);
  t.record("c", 8.0, 12.0, root, 1);
  // A grandchild counts against its parent, not the root.
  t.record("a.x", 2.0, 3.5, a, 1);
  const std::vector<double> self = perfbench::self_times(t.spans());
  CHECK(near(self[0], 10.0 - 5.0 - 2.0));
  CHECK(near(self[1], 3.0 - 1.5));
  CHECK(near(self[2], 3.0));
  CHECK(near(self[3], 4.0));
  CHECK(near(self[4], 1.5));
  const auto totals = perfbench::totals_by_name(t.spans());
  CHECK(totals.at("root").calls == 1);
  CHECK(near(totals.at("root").self, 3.0));

  // merge() remaps parent ids.
  perfbench::Tracer u;
  u.record("r", 0.0, 1.0, -1, 2);
  u.record("k", 0.0, 0.5, 0, 2);
  u.count("n", 3.0);
  t.merge(u);
  CHECK(t.spans().back().parent == 5);
  CHECK(near(perfbench::self_times(t.spans())[5], 0.5));
  CHECK(t.counts().at("n").size() == 1);
}

std::vector<std::string> bodies_for(std::uint64_t seed) {
  const netrec::core::RecoveryProblem problem =
      perfbench::netrecd_default_preload();
  std::vector<std::string> out;
  for (const perfbench::DamageState& state :
       perfbench::distinct_gaussian_states(problem, 24, 8, seed)) {
    out.push_back(perfbench::request_body(state) + "#" +
                  netrec::serve::fingerprint(perfbench::plan_request(state)));
  }
  return out;
}

void test_seeded_requests() {
  const std::vector<std::string> a = bodies_for(11);
  CHECK(a.size() == 24);
  CHECK(a == bodies_for(11));
  CHECK(a != bodies_for(12));

  // Pairwise distinct fingerprints within one draw.
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      const auto fi = a[i].substr(a[i].find('#'));
      const auto fj = a[j].substr(a[j].find('#'));
      CHECK(fi != fj);
    }
  }
}

void test_preload_matches_netrecd() {
  const netrec::core::RecoveryProblem netrecd =
      perfbench::netrecd_default_preload();
  const netrec::core::RecoveryProblem ours =
      perfbench::bell_canada_problem(8, 12.0, 7);
  CHECK(netrecd.graph.num_nodes() == ours.graph.num_nodes());
  CHECK(netrecd.graph.num_edges() == ours.graph.num_edges());
  CHECK(netrecd.demands.size() == ours.demands.size());
  for (std::size_t i = 0; i < ours.demands.size(); ++i) {
    CHECK(netrecd.demands[i].source == ours.demands[i].source);
    CHECK(netrecd.demands[i].target == ours.demands[i].target);
    CHECK(netrecd.demands[i].amount == ours.demands[i].amount);
  }
}

void test_derive_seed() {
  CHECK(perfbench::derive_seed(1, 0) == perfbench::derive_seed(1, 0));
  CHECK(perfbench::derive_seed(1, 0) != perfbench::derive_seed(1, 1));
  CHECK(perfbench::derive_seed(1, 0) != perfbench::derive_seed(2, 0));
}

}  // namespace

int main() {
  test_percentile_nearest_rank();
  test_percentile_needs_ten_beyond();
  test_latency_sample_is_bounded();
  test_self_time_nested_spans();
  test_seeded_requests();
  test_preload_matches_netrecd();
  test_derive_seed();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
