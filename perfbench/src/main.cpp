// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <serve_hit|serve_miss|solve_scale|timeline_replan>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Human-readable lines first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
// when an output failed its check, 2 on a usage or set-up error (then
// without a result line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "report.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunConfig;
using perfbench::RunReport;

const std::map<std::string, RunReport (*)(const RunConfig&)> kWorkloads = {
    {"serve_hit", perfbench::run_serve_hit},
    {"serve_miss", perfbench::run_serve_miss},
    {"solve_scale", perfbench::run_solve_scale},
    {"timeline_replan", perfbench::run_timeline_replan},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\nworkloads:",
               why.c_str());
  for (const auto& [name, run] : kWorkloads) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage(flag + " expects a non-negative integer, got '" + text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  config.workdir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(parse_uint(flag, value));
      if (config.seconds <= 0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto it = kWorkloads.find(workload);
  if (it == kWorkloads.end()) usage("unknown workload '" + workload + "'");

  // The solver warns per solve on the infeasible serve preload; the
  // benchmark's own lines are the report.
  netrec::util::set_log_level(netrec::util::LogLevel::kError);
  try {
    std::filesystem::create_directories(config.workdir);
    std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d build=%s "
                "hardware_threads=%u\n",
                workload.c_str(), static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency());
    const RunReport report = it->second(config);
    for (const std::string& line : report.lines) {
      std::printf("%s\n", line.c_str());
    }
    std::printf("%s\n", perfbench::failed_frac_line(report).c_str());
    for (const perfbench::Metric& m : report.metrics) {
      std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!report.correct) {
      std::printf("CHECK FAILED: %s\n", report.first_failure.c_str());
    }
    std::printf("%s\n", perfbench::result_line(report).c_str());
    std::fflush(stdout);
    return report.correct && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
