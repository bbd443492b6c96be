// Self-test of the benchmark's own machinery: the open-loop client's timing
// and the span self-time arithmetic. Build and run with
//   cmake -S perfbench -B .bench_build/cmake && \
//   cmake --build .bench_build/cmake --target perfbench_selftest && \
//   .bench_build/cmake/perfbench_selftest
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "trace.h"
#include "util.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << '\n';
    ++failures;
  }
}

perfbench::Span MakeSpan(const char* name, std::int64_t start,
                         std::int64_t end, int parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void SelfTimeOnNestedSpans() {
  // A [0,100] has children B [10,40] and C [30,60] (overlapping: together
  // they cover [10,60]) and D [90,120] (clipped to [90,100]); B has child
  // E [15,25]. A grandchild never counts against A.
  const std::vector<perfbench::Span> spans = {
      MakeSpan("a", 0, 100, -1), MakeSpan("b", 10, 40, 0),
      MakeSpan("c", 30, 60, 0),  MakeSpan("d", 90, 120, 0),
      MakeSpan("e", 15, 25, 1),
  };
  const std::vector<std::int64_t> self = perfbench::SelfTimes(spans);
  Check(self[0] == 40, "self(a) = 100 - |[10,60] u [90,100]| = 40, got " +
                           std::to_string(self[0]));
  Check(self[1] == 20,
        "self(b) = 30 - 10 = 20, got " + std::to_string(self[1]));
  Check(self[2] == 30, "self(c) = 30, got " + std::to_string(self[2]));
  Check(self[3] == 30, "self(d) = 30, got " + std::to_string(self[3]));
  Check(self[4] == 10, "self(e) = 10, got " + std::to_string(self[4]));

  const auto totals = perfbench::TotalsByName(spans);
  Check(totals.at("a").total_ns == 100 && totals.at("a").self_ns == 40,
        "TotalsByName carries total and self time");
  Check(perfbench::LayerOf("model.rebind") == "model", "LayerOf");
}

void RecorderLinksParents() {
  perfbench::SpanRecorder rec;
  {
    perfbench::ScopedSpan outer(&rec, "bench.scenario", 7);
    {
      perfbench::ScopedSpan inner(&rec, "model.compile", 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    perfbench::ScopedSpan sibling(&rec, "model.eval", 7);
  }
  perfbench::ScopedSpan none(nullptr, "ignored", 0);  // a no-op
  const auto& s = rec.spans();
  Check(s.size() == 3, "three spans recorded");
  Check(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0,
        "parents follow nesting");
  Check(s[1].request == 7, "request id kept");
  const auto self = perfbench::SelfTimes(s);
  Check(self[0] >= 0 && self[0] < s[0].end_ns - s[0].start_ns,
        "children's time is not the parent's self time");
  Check(s[1].end_ns - s[1].start_ns >= 2'000'000, "span covers the call");
}

perfbench::OpenLoopResult RunAgainstFake(int stall_from, int stall_to) {
  // 40 requests due every 5 ms over 2 connections. The fake server answers
  // in 1 ms, except that it stalls 150 ms on requests [stall_from,
  // stall_to) — long enough to tie up both connections.
  std::vector<double> due(40);
  for (std::size_t i = 0; i < due.size(); ++i) due[i] = 0.005 * i;
  return perfbench::RunOpenLoop(due, 2, [&](std::size_t i) {
    const bool stall = static_cast<int>(i) >= stall_from &&
                       static_cast<int>(i) < stall_to;
    std::this_thread::sleep_for(std::chrono::milliseconds(stall ? 150 : 1));
    return true;
  });
}

void OpenLoopTimesFromDue() {
  const perfbench::OpenLoopResult calm = RunAgainstFake(0, 0);
  Check(perfbench::Quantile(calm.latency_ms, 0.99) < 50,
        "unstalled p99 stays small");
  Check(perfbench::Quantile(calm.lag_ms, 0.99) < 50,
        "unstalled generator is on time");

  const perfbench::OpenLoopResult stalled = RunAgainstFake(10, 12);
  // Request 12 was due at 60 ms but no connection is free until ~200 ms:
  // timed from its due time, it waited about 140 ms before being sent.
  Check(stalled.lag_ms[12] > 100, "late send shows as generator lag, got " +
                                      std::to_string(stalled.lag_ms[12]));
  Check(stalled.latency_ms[12] > 100,
        "latency counts the wait behind the stall, got " +
            std::to_string(stalled.latency_ms[12]));
  Check(perfbench::Quantile(stalled.latency_ms, 0.99) > 140,
        "the stall shows in p99");
  Check(perfbench::Quantile(stalled.lag_ms, 0.99) > 100,
        "the stall shows in the generator's p99 lag");
  for (char ok : stalled.ok) Check(ok != 0, "every request answered");
}

}  // namespace

int main() {
  SelfTimeOnNestedSpans();
  RecorderLinksParents();
  OpenLoopTimesFromDue();
  if (failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
