#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const std::string& name, std::uint64_t request,
                 int parent) {
  const double now = now_seconds();
  return record(name, now, now, parent, request);
}

void Tracer::close(int id) {
  spans_.at(static_cast<std::size_t>(id)).end = now_seconds();
}

int Tracer::record(const std::string& name, double start, double end,
                   int parent, std::uint64_t request) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::merge(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
  for (const auto& [name, values] : other.counts_) {
    auto& mine = counts_[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

void Tracer::write_json(const std::string& path) const {
  // Streamed rather than built as a util::Json tree: a traced serve run
  // holds hundreds of thousands of spans.
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("{\"spans\": [", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"request\":%llu}",
                 i == 0 ? "" : ",", span.name.c_str(), span.start, span.end,
                 span.parent, static_cast<unsigned long long>(span.request));
  }
  std::fputs("\n],\n\"counts\": {", out);
  bool first = true;
  for (const auto& [name, values] : counts_) {
    std::fprintf(out, "%s\n\"%s\": [", first ? "" : ",", name.c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, "%s%.17g", i == 0 ? "" : ",", values[i]);
    }
    std::fputs("]", out);
    first = false;
  }
  std::fputs("\n}}\n", out);
  if (std::fclose(out) != 0) {
    throw std::runtime_error("error writing trace file " + path);
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const auto p = static_cast<std::size_t>(span.parent);
    if (p >= spans.size()) throw std::out_of_range("span parent id");
    children[p].emplace_back(span.start, span.end);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (auto [start, end] : intervals) {
      start = std::max(start, span.start);
      end = std::min(end, span.end);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    out[i] = span.duration() - covered;
  }
  return out;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& totals = out[spans[i].name];
    ++totals.calls;
    totals.total += spans[i].duration();
    totals.self += self[i];
  }
  return out;
}

}  // namespace perfbench
