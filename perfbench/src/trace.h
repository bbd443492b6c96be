// Span recorder for the benchmark's traced run. Spans are recorded around
// calls into the program's public functions (the program itself carries no
// spans), kept in memory, and written once when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. `parent` indexes the enclosing span in the same
/// recorder (-1 for a root); spans of one scenario share `request`
/// (-1 for spans that belong to no workload scenario, such as probes).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t request = -1;
};

/// Single-threaded recorder: Begin pushes onto the open-span stack, so the
/// innermost open span becomes the parent of the next one.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int Begin(std::string name, std::int64_t request);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as one JSON document to `path`.
  void WriteJson(const std::string& path) const;

 private:
  std::int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op, so untraced code paths can
/// share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::int64_t request)
      : rec_(rec), id_(rec ? rec->Begin(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the span).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Layer of a span: its name up to the first '.' ("model.rebind" -> "model").
std::string LayerOf(const std::string& span_name);

}  // namespace perfbench
