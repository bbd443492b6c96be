// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload whatif|validate|served --input FILE --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Prints a host record, human-readable headline lines, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics when untraced, the per-layer metrics when traced. A
// failed output check is printed to stderr and makes the exit code 1.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload whatif|validate|served --input "
               "FILE --seed N --seconds S --trace 0|1 --out DIR\n";
  std::exit(2);
}

coc::Json HostRecord(const perfbench::RunArgs& a, int trace) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  coc::Json j = coc::Json::Object();
  j.Set("host", std::string(host));
  j.Set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  j.Set("threads", a.threads);
#if defined(__clang__)
  j.Set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j.Set("compiler", std::string("gcc ") + __VERSION__);
#else
  j.Set("compiler", "unknown");
#endif
  j.Set("build_type", PERFBENCH_BUILD_TYPE);
  j.Set("workload", a.workload);
  j.Set("seed", a.seed);
  j.Set("seconds", a.seconds);
  j.Set("trace", trace);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs a;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--input") {
        a.input = v;
      } else if (flag == "--out") {
        a.out_dir = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        trace = std::stoi(v);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload != "whatif" && a.workload != "validate" &&
      a.workload != "served") {
    Usage("unknown workload '" + a.workload + "'");
  }
  if (a.input.empty() || a.out_dir.empty()) Usage("--input and --out required");
  if (trace != 0 && trace != 1) Usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) Usage("--seconds must be > 0");
  a.threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                         1, 4);

  const coc::Json host = HostRecord(a, trace);
  std::cout << "host " << host.Dump() << std::endl;
  // Timings of another build type are not comparable with the record.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to report a " << PERFBENCH_BUILD_TYPE
              << " build as comparable; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  perfbench::RunResult res;
  try {
    if (trace == 1) {
      res = perfbench::RunTraced(a);
    } else if (a.workload == "served") {
      res = perfbench::RunServedWorkload(a);
    } else {
      res = perfbench::RunBatchWorkload(a);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << '\n';
    return 1;
  }

  const double fail_frac =
      res.attempted ? static_cast<double>(res.failed) / res.attempted : 1.0;
  std::ostringstream ff;
  ff << "fail_frac " << fail_frac << " ratio (" << res.failed << " of "
     << res.attempted << ")";
  res.notes.push_back(ff.str());
  for (const std::string& line : res.notes) std::cout << line << '\n';
  coc::Json metrics = coc::Json::Object();
  for (const perfbench::Metric& m : res.metrics) {
    std::cout << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    coc::Json v = coc::Json::Object();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    metrics.Set(m.name, std::move(v));
  }
  coc::Json result = coc::Json::Object();
  result.Set("correct", res.correct);
  result.Set("attempted", res.attempted);
  result.Set("failed", res.failed);
  result.Set("metrics", std::move(metrics));

  // The full record (host, notes, result) also goes to the output directory.
  coc::Json record = coc::Json::Object();
  record.Set("host", host);
  coc::Json notes = coc::Json::Array();
  for (const std::string& line : res.notes) notes.Push(line);
  record.Set("notes", std::move(notes));
  record.Set("result", result);
  std::ofstream(a.out_dir + "/" + a.workload + "-seed" +
                std::to_string(a.seed) + "-trace" + std::to_string(trace) +
                ".json")
      << record.Dump(2) << '\n';

  std::cout << result.Dump() << std::endl;
  return res.correct ? 0 : 1;
}
