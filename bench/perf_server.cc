// Server request latency: cached vs uncached dispatch through the line
// protocol. Drives RequestHandler::HandleLine directly (no sockets), so the
// numbers isolate the protocol + cache + evaluation path from kernel
// networking noise. Tracked as perf/BENCH_server.json via tools/perf_report.
//
// The report-render layer is measured here too: Report::ToJson plus Dump of
// one paper-scale report, and the batch envelope of 50 of them.
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "common/json.h"
#include "server/protocol.h"

namespace {

constexpr const char* kScenario = R"(
[scenario bench]
system = preset:tiny:16:64
analyses = model,bottleneck
rate = 1e-4
)";

constexpr const char* kBatch = R"(
[scenario bench-a]
system = preset:tiny:16:64
analyses = model,bottleneck
rate = 1e-4

[scenario bench-b]
system = preset:tiny:16:64
analyses = model
rate = 1e-4
workload.pattern = local
workload.locality = 0.7

[scenario bench-c]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4
)";

std::string EvaluateLine(const char* scenario_text) {
  coc::Json request = coc::Json::Object();
  request.Set("op", "evaluate");
  request.Set("scenario", scenario_text);
  return coc::JsonLine(request);
}

std::string BatchLine(const char* scenarios_text) {
  coc::Json request = coc::Json::Object();
  request.Set("op", "batch");
  request.Set("scenarios", scenarios_text);
  return coc::JsonLine(request);
}

/// The steady-state served request: the result cache answers without
/// touching the Engine.
void BM_ServerRequestCached(benchmark::State& state) {
  coc::RequestHandler handler(coc::Engine::Options{}, /*cache_entries=*/1024,
                              coc::FaultInjector{});
  const std::string line = EvaluateLine(kScenario);
  handler.HandleLine(line);  // warm: populate the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(handler.HandleLine(line));
  }
}
BENCHMARK(BM_ServerRequestCached);

/// A cache-disabled handler: every request re-renders through the Engine
/// (whose own memo maps stay warm, so this measures evaluate + render +
/// protocol, not model compilation).
void BM_ServerRequestUncached(benchmark::State& state) {
  coc::RequestHandler handler(coc::Engine::Options{}, /*cache_entries=*/0,
                              coc::FaultInjector{});
  const std::string line = EvaluateLine(kScenario);
  handler.HandleLine(line);  // warm the Engine memo maps
  for (auto _ : state) {
    benchmark::DoNotOptimize(handler.HandleLine(line));
  }
}
BENCHMARK(BM_ServerRequestUncached);

/// A three-scenario batch envelope served from cache.
void BM_ServerBatchRequestCached(benchmark::State& state) {
  coc::RequestHandler handler(coc::Engine::Options{}, /*cache_entries=*/1024,
                              coc::FaultInjector{});
  const std::string line = BatchLine(kBatch);
  handler.HandleLine(line);
  for (auto _ : state) {
    benchmark::DoNotOptimize(handler.HandleLine(line));
  }
}
BENCHMARK(BM_ServerBatchRequestCached);

/// The N=1120 model + bottleneck + saturation report the render benches
/// serialize (32 clusters, about 5.7 KB of compact JSON).
coc::Report Report1120() {
  coc::Engine engine;
  return engine.Evaluate(coc::ParseScenarios(R"(
[scenario render]
system = preset:1120
analyses = model,bottleneck,saturation
rate = 1e-4
)").front());
}

/// Report::ToJson().Dump() of one report: the per-scenario render cost.
void BM_ReportRender1120(benchmark::State& state) {
  const coc::Report report = Report1120();
  for (auto _ : state) {
    benchmark::DoNotOptimize(report.ToJson().Dump());
  }
}
BENCHMARK(BM_ReportRender1120);

/// BatchToJson of 50 such reports, then Dump: one batch chunk's render.
void BM_BatchRender(benchmark::State& state) {
  const std::vector<coc::Report> reports(50, Report1120());
  for (auto _ : state) {
    benchmark::DoNotOptimize(coc::BatchToJson(reports).Dump());
  }
}
BENCHMARK(BM_BatchRender);

}  // namespace

BENCHMARK_MAIN();
