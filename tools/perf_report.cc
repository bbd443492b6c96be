// Perf-trajectory reporter: runs the google-benchmark perf suites
// (bench_perf_sim, bench_perf_model) plus the validation benches
// (bench_ablation_workload, bench_ablation_dragonfly) and emits the tracked
// artifacts BENCH_sim.json / BENCH_model.json / BENCH_workload.json /
// BENCH_dragonfly.json (google-benchmark's JSON schema: a "context" block
// plus a "benchmarks" array with per-benchmark "name",
// "real_time"/"cpu_time" in ns, and user counters such as "msgs/s").
// Prints a compact summary, and — given a baseline artifact — the msgs/s
// speedup against it, so CI and PRs can quote before/after numbers from one
// command. Also writes PERF_summary.json, a machine-readable digest of all
// suites (current numbers plus baseline deltas) produced by the shared
// common/json emitter — the same serializer the Engine's reports use, so
// there is exactly one JSON writer in the tree.
//
// Usage:
//   perf_report [--bench-dir DIR] [--out-dir DIR] [--baseline FILE]
//               [--model-baseline FILE] [--workload-baseline FILE]
//               [--dragonfly-baseline FILE] [--server-baseline FILE]
//               [--min-time SECONDS] [--check] [--check-threshold FACTOR]
//
//   --bench-dir        directory holding bench_perf_sim / bench_perf_model
//                      (default: ".")
//   --out-dir          where the BENCH_*.json artifacts and PERF_summary.json
//                      are written (default: ".")
//   --baseline         a previous BENCH_sim.json
//                      (e.g. perf/BENCH_sim.baseline.json) to compare
//                      msgs/s and ns/op against
//   --model-baseline   same for the model suite (BENCH_model.json)
//   --workload-baseline same for the workload validation suite
//                      (BENCH_workload.json; compares model-vs-sim err%)
//   --dragonfly-baseline same for the dragonfly validation suite
//                      (BENCH_dragonfly.json; compares model-vs-sim err%)
//   --server-baseline  same for the evaluation-server suite
//                      (BENCH_server.json; cached vs uncached request
//                      latency through the line protocol)
//   --min-time         per-benchmark measuring time (default 1 second)
//   --check            exit non-zero when any benchmark regresses past the
//                      threshold against its baseline (throughput metrics:
//                      current < baseline / FACTOR; time metrics: current >
//                      baseline * FACTOR). Validation entries (err%) carry
//                      no perf signal and are never checked. Also gates the
//                      dial-move rebind speedup (BM_WorkloadDialMoveCold /
//                      BM_WorkloadDialMoveRebind, both from the current
//                      run, so machine speed cancels) at 5x.
//   --check-threshold  regression factor for --check (default 1.75 — wide
//                      enough for shared-runner noise, tight enough to catch
//                      a lost optimization)
//
// Exit code: 0 on success, 1 on a bad flag value or when a bench binary is
// missing or fails, 2 when --check found a regression.
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parse_num.h"

namespace {

using coc::Json;

struct BenchResult {
  double real_time_ns = 0;
  double msgs_per_s = 0;  // 0 when the benchmark has no msgs/s counter
  double model_us = 0;    // workload suite: analytical mean latency
  double sim_us = 0;      // workload suite: simulated mean latency
  bool model_saturated = false;  // workload suite: model is past saturation
  /// Model suite: cold-compile time / rebind time for one workload-dial
  /// move, both measured interleaved within the same benchmark so machine
  /// noise cancels out of the ratio. 0 when the entry has no such counter.
  double rebind_speedup = 0;

  /// Workload-suite entries carry a model-vs-sim validation error instead of
  /// a throughput; that error is what baselines compare.
  bool HasErrPct() const { return sim_us > 0 && !model_saturated; }
  double ErrPct() const { return 100.0 * (model_us - sim_us) / sim_us; }
};

/// Reads a google-benchmark JSON artifact through the shared parser and
/// extracts the fields the trajectory tracks ("name", "real_time", and the
/// user counters). Unparseable or structurally alien files yield an empty
/// map, which the caller reports.
std::map<std::string, BenchResult> ParseBenchJson(const std::string& path) {
  std::map<std::string, BenchResult> results;
  std::ifstream in(path);
  if (!in) return results;
  std::ostringstream buf;
  buf << in.rdbuf();
  Json doc;
  try {
    doc = Json::Parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s: %s\n", path.c_str(), e.what());
    return results;
  }
  const Json* benchmarks = doc.Find("benchmarks");
  if (benchmarks == nullptr || benchmarks->kind() != Json::Kind::kArray) {
    return results;
  }
  const auto number = [](const Json& entry, const char* key, double fallback) {
    const Json* v = entry.Find(key);
    return v != nullptr ? v->AsDouble() : fallback;
  };
  for (std::size_t i = 0; i < benchmarks->Size(); ++i) {
    const Json& entry = benchmarks->At(i);
    const Json* name = entry.Find("name");
    if (name == nullptr) continue;
    BenchResult& r = results[name->AsString()];
    r.real_time_ns = number(entry, "real_time", 0);
    r.msgs_per_s = number(entry, "msgs/s", 0);
    r.model_us = number(entry, "model_us", 0);
    r.sim_us = number(entry, "sim_us", 0);
    r.model_saturated = number(entry, "model_saturated", 0) != 0.0;
    r.rebind_speedup = number(entry, "rebind_speedup", 0);
  }
  return results;
}

int RunSuite(const std::string& bench_dir, const std::string& binary,
             const std::string& out_path, double min_time) {
  std::ostringstream cmd;
  // Suppress the console table (the JSON artifact is the output of record)
  // but let the bench's stderr through for diagnosability.
  cmd << bench_dir << "/" << binary << " --benchmark_out_format=json"
      << " --benchmark_out=" << out_path << " --benchmark_min_time=" << min_time
      << " > /dev/null";
  const int status = std::system(cmd.str().c_str());
  if (status == 0) return 0;
#if defined(WIFEXITED) && defined(WEXITSTATUS)
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : status;
#else
  const int code = status;
#endif
  std::fprintf(stderr, "error: '%s/%s' failed (exit %d)\n", bench_dir.c_str(),
               binary.c_str(), code);
  return code != 0 ? code : 1;
}

void PrintSuite(const char* title, const std::string& path,
                const std::map<std::string, BenchResult>& results) {
  std::printf("\n%s -> %s\n", title, path.c_str());
  for (const auto& [name, r] : results) {
    if (r.msgs_per_s > 0) {
      std::printf("  %-36s %12.0f ns/op  %10.1f k msgs/s\n", name.c_str(),
                  r.real_time_ns, r.msgs_per_s / 1000.0);
    } else if (r.HasErrPct()) {
      std::printf("  %-36s model %8.1f us  sim %8.1f us  (%+.1f%%)\n",
                  name.c_str(), r.model_us, r.sim_us, r.ErrPct());
    } else if (r.sim_us > 0) {
      std::printf("  %-36s model saturated  sim %8.1f us\n", name.c_str(),
                  r.sim_us);
    } else if (r.model_saturated) {
      std::printf("  %-36s model saturated  sim aborted\n", name.c_str());
    } else {
      std::printf("  %-36s %12.0f ns/op\n", name.c_str(), r.real_time_ns);
    }
  }
}

void CompareToBaseline(const std::string& baseline_path,
                       const std::map<std::string, BenchResult>& base,
                       const std::map<std::string, BenchResult>& current) {
  std::printf("\nvs baseline %s\n", baseline_path.c_str());
  for (const auto& [name, r] : current) {
    const auto it = base.find(name);
    if (it == base.end()) continue;
    if (r.sim_us > 0 || it->second.sim_us > 0 || r.model_saturated ||
        it->second.model_saturated) {
      // Workload validation entries: compare the model-vs-sim error, the
      // metric the artifact exists for (wall time is sweep noise).
      if (r.HasErrPct() && it->second.HasErrPct()) {
        std::printf("  %-36s err %+6.1f%% -> %+6.1f%%\n", name.c_str(),
                    it->second.ErrPct(), r.ErrPct());
      } else if (r.model_saturated != it->second.model_saturated) {
        std::printf("  %-36s model saturation changed: %s -> %s\n",
                    name.c_str(),
                    it->second.model_saturated ? "saturated" : "finite",
                    r.model_saturated ? "saturated" : "finite");
      }
      continue;
    }
    if (r.msgs_per_s > 0 && it->second.msgs_per_s > 0) {
      std::printf("  %-36s %10.1f -> %10.1f k msgs/s  (%.2fx)\n", name.c_str(),
                  it->second.msgs_per_s / 1000.0, r.msgs_per_s / 1000.0,
                  r.msgs_per_s / it->second.msgs_per_s);
    } else if (it->second.real_time_ns > 0 && r.real_time_ns > 0) {
      std::printf("  %-36s %10.0f -> %10.0f ns/op     (%.2fx)\n", name.c_str(),
                  it->second.real_time_ns, r.real_time_ns,
                  it->second.real_time_ns / r.real_time_ns);
    }
  }
}

/// Regression gate for --check: compares every benchmark present in both the
/// current run and the baseline, preferring the throughput counter (msgs/s,
/// fails when it drops below baseline / threshold) and falling back to wall
/// time (fails when it exceeds baseline * threshold). Validation entries
/// (model-vs-sim error) are skipped — their wall time is sweep noise.
/// Returns the number of regressions, printing one line per failure.
int CheckAgainstBaseline(const char* title,
                         const std::map<std::string, BenchResult>& base,
                         const std::map<std::string, BenchResult>& current,
                         double threshold) {
  int regressions = 0;
  for (const auto& [name, r] : current) {
    const auto it = base.find(name);
    if (it == base.end()) continue;
    const BenchResult& b = it->second;
    if (r.sim_us > 0 || b.sim_us > 0 || r.model_saturated ||
        b.model_saturated) {
      continue;
    }
    if (r.msgs_per_s > 0 && b.msgs_per_s > 0) {
      if (r.msgs_per_s * threshold < b.msgs_per_s) {
        std::fprintf(stderr,
                     "check FAILED: %s / %s: %.1f k msgs/s vs baseline %.1f "
                     "(%.2fx slower, threshold %.2fx)\n",
                     title, name.c_str(), r.msgs_per_s / 1000.0,
                     b.msgs_per_s / 1000.0, b.msgs_per_s / r.msgs_per_s,
                     threshold);
        ++regressions;
      }
    } else if (r.real_time_ns > 0 && b.real_time_ns > 0) {
      if (r.real_time_ns > b.real_time_ns * threshold) {
        std::fprintf(stderr,
                     "check FAILED: %s / %s: %.0f ns/op vs baseline %.0f "
                     "(%.2fx slower, threshold %.2fx)\n",
                     title, name.c_str(), r.real_time_ns, b.real_time_ns,
                     r.real_time_ns / b.real_time_ns, threshold);
        ++regressions;
      }
    }
  }
  return regressions;
}

/// Absolute gate for --check: the single-dial-move rebind must stay at
/// least `required` times faster than the cold recompile it replaces. The
/// ratio comes from BM_WorkloadDialMoveRebindVsCold's rebind_speedup
/// counter, which times both alternatives interleaved within one benchmark
/// — machine speed and scheduler noise cancel out of the ratio, so unlike
/// the baseline comparisons this gate cannot go stale or flake with the
/// runner. Returns 1 (a failure) when the ratio degrades, 0 otherwise;
/// suites without the counter (e.g. older artifacts) pass vacuously.
int CheckRebindSpeedup(const std::map<std::string, BenchResult>& results,
                       double required) {
  const auto it = results.find("BM_WorkloadDialMoveRebindVsCold");
  if (it == results.end() || !(it->second.rebind_speedup > 0)) return 0;
  const double speedup = it->second.rebind_speedup;
  if (speedup < required) {
    std::fprintf(stderr,
                 "check FAILED: model suite: dial-move rebind speedup %.2fx "
                 "below required %.2fx\n",
                 speedup, required);
    return 1;
  }
  std::printf("check: dial-move rebind speedup %.2fx (>= %.2fx required)\n",
              speedup, required);
  return 0;
}

/// One benchmark entry of the machine-readable digest.
Json BenchToJson(const BenchResult& r, const BenchResult* base) {
  Json j = Json::Object();
  j.Set("real_time_ns", r.real_time_ns);
  if (r.msgs_per_s > 0) j.Set("msgs_per_s", r.msgs_per_s);
  if (r.sim_us > 0 || r.model_saturated) {
    j.Set("model_us", r.model_us);
    j.Set("sim_us", r.sim_us);
    j.Set("model_saturated", r.model_saturated);
    if (r.HasErrPct()) j.Set("err_pct", r.ErrPct());
  }
  if (base != nullptr) {
    Json b = Json::Object();
    if (r.msgs_per_s > 0 && base->msgs_per_s > 0) {
      b.Set("msgs_per_s", base->msgs_per_s);
      b.Set("speedup", r.msgs_per_s / base->msgs_per_s);
    } else if (r.HasErrPct() && base->HasErrPct()) {
      b.Set("err_pct", base->ErrPct());
    } else if (base->real_time_ns > 0 && r.real_time_ns > 0) {
      b.Set("real_time_ns", base->real_time_ns);
      b.Set("speedup", base->real_time_ns / r.real_time_ns);
    }
    if (b.Size() > 0) j.Set("baseline", std::move(b));
  }
  return j;
}

}  // namespace

/// One tracked bench suite: the binary to run, the artifact it emits, and
/// the CLI flag naming its baseline. Adding a suite is one table entry.
struct Suite {
  const char* binary;
  const char* artifact;       // file name under --out-dir
  const char* title;
  const char* baseline_flag;  // e.g. "--model-baseline"
  std::string baseline;       // filled from the flag
  std::string out_path;
  std::map<std::string, BenchResult> results;
  std::map<std::string, BenchResult> baseline_results;  // parsed once
};

int main(int argc, char** argv) {
  Suite suites[] = {
      {"bench_perf_sim", "BENCH_sim.json", "simulator suite", "--baseline",
       {}, {}, {}, {}},
      {"bench_perf_model", "BENCH_model.json", "model suite",
       "--model-baseline", {}, {}, {}, {}},
      {"bench_ablation_workload", "BENCH_workload.json",
       "workload validation suite", "--workload-baseline", {}, {}, {}, {}},
      {"bench_ablation_dragonfly", "BENCH_dragonfly.json",
       "dragonfly validation suite", "--dragonfly-baseline", {}, {}, {}, {}},
      {"bench_ablation_burstiness", "BENCH_burstiness.json",
       "burstiness validation suite", "--burstiness-baseline", {}, {}, {}, {}},
      {"bench_perf_server", "BENCH_server.json", "server suite",
       "--server-baseline", {}, {}, {}, {}},
  };

  std::string bench_dir = ".";
  std::string out_dir = ".";
  double min_time = 1.0;
  bool check = false;
  double check_threshold = 1.75;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    Suite* flagged = nullptr;
    for (Suite& s : suites) {
      if (arg == s.baseline_flag) flagged = &s;
    }
    if (flagged != nullptr) {
      flagged->baseline = next();
    } else if (arg == "--bench-dir") {
      bench_dir = next();
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--min-time") {
      const char* text = next();
      const auto v = coc::ParseFullDouble(text);
      if (!v || !std::isfinite(*v) || *v <= 0) {
        std::fprintf(stderr,
                     "error: --min-time expects seconds > 0, got '%s'\n",
                     text);
        return 1;
      }
      min_time = *v;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--check-threshold") {
      const char* text = next();
      const auto v = coc::ParseFullDouble(text);
      if (!v || !std::isfinite(*v) || *v <= 1.0) {
        std::fprintf(stderr,
                     "error: --check-threshold expects a factor > 1, got "
                     "'%s'\n",
                     text);
        return 1;
      }
      check_threshold = *v;
    } else {
      std::fprintf(stderr,
                   "usage: perf_report [--bench-dir DIR] [--out-dir DIR] "
                   "[--baseline FILE] [--model-baseline FILE] "
                   "[--workload-baseline FILE] [--dragonfly-baseline FILE] "
                   "[--server-baseline FILE] [--min-time SECONDS] [--check] "
                   "[--check-threshold FACTOR]\n");
      return arg == "--help" ? 0 : 1;
    }
  }

  for (Suite& s : suites) {
    s.out_path = out_dir + "/" + s.artifact;
    if (RunSuite(bench_dir, s.binary, s.out_path, min_time) != 0) return 1;
    s.results = ParseBenchJson(s.out_path);
    if (s.results.empty()) {
      std::fprintf(stderr,
                   "error: benchmark output missing or unparseable: %s\n",
                   s.out_path.c_str());
      return 1;
    }
  }
  for (Suite& s : suites) {
    if (!s.baseline.empty()) s.baseline_results = ParseBenchJson(s.baseline);
  }
  for (const Suite& s : suites) PrintSuite(s.title, s.out_path, s.results);
  for (const Suite& s : suites) {
    if (!s.baseline.empty()) {
      CompareToBaseline(s.baseline, s.baseline_results, s.results);
    }
  }

  // Machine-readable digest of everything above, through the shared emitter.
  Json summary = Json::Object();
  summary.Set("schema_version", 1);
  Json suites_json = Json::Object();
  for (const Suite& s : suites) {
    const auto& base = s.baseline_results;
    Json suite = Json::Object();
    suite.Set("artifact", s.artifact);
    if (!s.baseline.empty()) suite.Set("baseline", s.baseline);
    Json benches = Json::Object();
    for (const auto& [name, r] : s.results) {
      const auto it = base.find(name);
      benches.Set(name, BenchToJson(r, it == base.end() ? nullptr
                                                        : &it->second));
    }
    suite.Set("benchmarks", std::move(benches));
    suites_json.Set(s.binary, std::move(suite));
  }
  summary.Set("suites", std::move(suites_json));
  const std::string summary_path = out_dir + "/PERF_summary.json";
  std::ofstream out(summary_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", summary_path.c_str());
    return 1;
  }
  out << summary.Dump(2) << "\n";
  std::printf("\nsummary -> %s\n", summary_path.c_str());

  if (check) {
    int regressions = 0;
    bool any_baseline = false;
    for (const Suite& s : suites) {
      if (s.baseline.empty()) continue;
      any_baseline = true;
      regressions += CheckAgainstBaseline(s.title, s.baseline_results,
                                          s.results, check_threshold);
    }
    if (!any_baseline) {
      std::fprintf(stderr, "error: --check needs at least one baseline\n");
      return 1;
    }
    for (const Suite& s : suites) {
      if (std::string(s.binary) == "bench_perf_model") {
        regressions += CheckRebindSpeedup(s.results, 5.0);
      }
    }
    if (regressions > 0) {
      std::fprintf(stderr, "check: %d regression(s) past %.2fx\n", regressions,
                   check_threshold);
      return 2;
    }
    std::printf("check: no regression past %.2fx\n", check_threshold);
  }
  return 0;
}
