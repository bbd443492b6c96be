// Shared declarations of the benchmark driver: one run of one workload,
// either untraced (end-to-end metrics) or traced (per-layer metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "server/server.h"

namespace perfbench {

struct RunArgs {
  std::string workload;  ///< whatif | validate | served
  std::string input;     ///< the generated input file
  std::string out_dir;   ///< where span and result files go
  std::uint64_t seed = 0;
  double seconds = 10;
  int threads = 4;  ///< batch workers: min(nproc, 4)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line (headline figures
  /// that are not gated, sample counts, the output digest).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check loudly: it is printed to stderr and the
  /// run reports correct = false.
  void Fail(const std::string& what);
};

// --- workload fixtures shared by the untraced and traced runs -------------

/// The served workload's server: 2 workers, otherwise `coc_cli serve`'s
/// defaults (result cache 1024, Engine model entries 256).
coc::ServerOptions ServedServerOptions();
/// The served workload's fixed offered rate (requests per second): a fifth
/// to a seventh of the throughput the measured instances sustain on one CPU
/// (2400 to 3300 requests/s on a 4-vCPU VM, as the host's speed varies), so
/// requests seldom queue and the fixed-rate latency is mostly service time. It stays a constant so that
/// two commits are compared at the same offered load; each run prints the
/// rate as a share of its own measured throughput.
inline constexpr double kServedRate = 500;
/// At most this many client connections are open at once.
inline constexpr int kServedConnections = 2;

/// Identity of a scenario's system, as the Engine caches it: the spec plus
/// the ICN2 override.
std::string SystemKey(const coc::Scenario& s);

/// One warm-up scenario per distinct (system, ICN2 override) in `scenarios`:
/// model analysis on the system's own workload, plus a small simulation
/// when any scenario of that system simulates (so the simulator is built).
std::vector<coc::Scenario> WarmupScenarios(
    const std::vector<coc::Scenario>& scenarios);

/// Scenario text of every request line of the served input.
std::vector<std::string> ServedScenarioTexts(
    const std::vector<std::string>& lines);

/// A served response with the server-added "cache" and "server" fields
/// removed: byte-comparable to the offline Report::ToJson() dump.
std::string StripServed(const std::string& response_line);

/// The evaluate request line for one scenario text.
std::string EvaluateLine(const std::string& scenario_text);

std::string ReadFile(const std::string& path);
std::vector<std::string> ReadLines(const std::string& path);
double PeakRssMb();

// --- runs -----------------------------------------------------------------

RunResult RunBatchWorkload(const RunArgs& args);  ///< whatif, validate
RunResult RunServedWorkload(const RunArgs& args);
RunResult RunTraced(const RunArgs& args);

}  // namespace perfbench
