// In-memory span tracer for the benchmark's own calls into netrec.
//
// A span records a layer boundary crossed by the benchmark: name, start,
// end, the span that caused it and the request it belongs to.  Spans stay
// in memory while the workload runs and are written out once at exit.  One
// Tracer per thread; merge() folds the per-thread tracers together.
//
// A span's self time is its duration minus the part of its interval its
// child spans cover (the union, so overlapping children count once).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in seconds (steady_clock).
double now_seconds();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;

  double duration() const { return end - start; }
};

class Tracer {
 public:
  /// Opens a span starting now; returns its id for close().
  int open(const std::string& name, std::uint64_t request, int parent = -1);
  void close(int id);
  /// Records a span with known bounds; returns its id.
  int record(const std::string& name, double start, double end, int parent,
             std::uint64_t request);

  /// Records one observation of a counter read at a layer boundary.
  void count(const std::string& name, double value) {
    counts_[name].push_back(value);
  }

  /// Appends `other`'s spans (remapping their parent ids) and counters.
  void merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, std::vector<double>>& counts() const {
    return counts_;
  }

  /// Writes {"spans": [...], "counts": {...}} as JSON.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> counts_;
};

/// RAII span; a null tracer makes it a no-op, so untraced runs pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t request,
             int parent = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span (same indexing as `spans`).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Per span name: call count, total duration and total self time.
struct SpanTotals {
  std::size_t calls = 0;
  double total = 0.0;
  double self = 0.0;
};
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
