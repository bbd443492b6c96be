// Untraced run of the served workload: interactive what-if clients against
// a loopback EvalServer, one connection per request (as `coc_cli submit`
// does), at most kServedConnections at once.
//
// Latency and throughput of a loopback server depend strongly on where its
// threads happen to run, and that placement is fixed for a server's life.
// So the run measures several fresh server instances (segments) on the
// same request stream, with client and server sharing one CPU, and reports
// medians over them. On one CPU the two workers never run in parallel: the
// measured instances give the CPU cost of a request, and worker-pool
// concurrency shows only on the unpinned max_rps ladder, which is not
// gated. On a 4-vCPU VM, spreading the instances over three CPUs (one per
// worker) made their throughput spread by 0.4 of its median over five
// seeds, against 0.04 on one CPU.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "api/engine.h"
#include "api/report.h"
#include "bench.h"
#include "common/json.h"
#include "open_loop.h"
#include "util.h"

namespace perfbench {
namespace {

// Server instances per second of the run; each has the same length.
constexpr double kSegmentsPerSecond = 0.6;
constexpr std::size_t kFixedRequests = 150;  // per instance, at kServedRate
constexpr std::size_t kBurstRequests = 400;
// Bursts per instance: kThroughputBursts on kServedConnections, the rest
// (every third) on one connection.
constexpr std::size_t kBursts = 6;
constexpr std::size_t kThroughputBursts = 4;
// max_rps: the p99 limit and the fixed rate ladder, on one more instance,
// kRungSeconds per rung.
constexpr double kP99LimitMs = 50;
constexpr double kRungSeconds = 0.5;
constexpr double kLadder[] = {400, 800, 1200, 1600, 2400, 3200, 4000, 4800};

/// Requests due evenly at `rate` per second, `count` of them.
std::vector<double> Evenly(double rate, std::size_t count) {
  std::vector<double> due(count);
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = static_cast<double>(i) / rate;
  }
  return due;
}

/// One open-loop phase over request lines [first, first + due.size()) on
/// `connections` connections, storing each response at its line index.
/// `spin_us` as in RunOpenLoop.
OpenLoopResult Phase(int port, const std::vector<std::string>& lines,
                     std::size_t first, const std::vector<double>& due,
                     std::vector<std::string>& responses, int connections,
                     int spin_us) {
  if (first + due.size() > lines.size()) {
    throw std::runtime_error("served input too short for the schedule");
  }
  return RunOpenLoop(due, connections, [&](std::size_t i) {
    try {
      responses[first + i] =
          coc::SubmitLine("127.0.0.1", port, lines[first + i]);
      return true;
    } catch (const std::exception&) {
      return false;  // left empty: counted by the output check
    }
  }, spin_us);
}

/// A fresh server that has started accepting and answered `warm_lines`.
std::unique_ptr<coc::EvalServer> StartServer(
    const std::vector<std::string>& warm_lines, RunResult& res) {
  auto server = std::make_unique<coc::EvalServer>(ServedServerOptions());
  server->Start();
  for (const std::string& line : warm_lines) {
    const std::string resp = coc::SubmitLine("127.0.0.1", server->port(), line);
    if (resp.find("\"ok\":true") == std::string::npos) {
      res.Fail("warm-up request failed: " + resp);
    }
  }
  return server;
}

void StopServer(std::unique_ptr<coc::EvalServer>& server, RunResult& res) {
  server->Stop();
  if (server->Wait() != 0) res.Fail("server did not drain cleanly");
  server.reset();
}

/// Responses [first, end) with the server-added cache/server fields
/// removed; a missing or unparseable response becomes a line that matches
/// no report.
std::vector<std::string> Stripped(const std::vector<std::string>& responses,
                                  std::size_t first, std::size_t end) {
  std::vector<std::string> out;
  for (std::size_t i = first; i < end; ++i) {
    try {
      out.push_back(StripServed(responses[i]));
    } catch (const std::exception& e) {
      out.push_back(std::string("unparseable response: ") + e.what());
    }
  }
  return out;
}

struct OfflineCheck {
  std::vector<char> ok;  ///< per response: byte-identical to offline
  std::uint64_t digest = 0;  ///< FNV of the stripped responses in order
};

/// Output check: each stripped response for lines [first, first +
/// stripped.size()) must be byte-identical to offline EvaluateBatch of the
/// same scenario, with an ok status.
OfflineCheck CheckOffline(const std::vector<std::string>& texts,
                          const std::vector<std::string>& stripped,
                          std::size_t first, int threads) {
  std::map<std::string, std::size_t> unique;
  std::vector<coc::Scenario> offline;
  for (std::size_t k = 0; k < stripped.size(); ++k) {
    if (unique.emplace(texts[first + k], offline.size()).second) {
      offline.push_back(coc::ParseScenario(texts[first + k]));
    }
  }
  std::vector<std::string> expected;
  std::vector<bool> expected_ok;
  coc::Engine engine;
  for (const coc::Report& r : engine.EvaluateBatch(offline, threads)) {
    expected.push_back(r.ToJson().Dump());
    expected_ok.push_back(r.status.ok());
  }
  OfflineCheck c;
  c.digest = Fnv1a("");
  for (std::size_t k = 0; k < stripped.size(); ++k) {
    const std::size_t u = unique.at(texts[first + k]);
    c.ok.push_back(expected_ok[u] && stripped[k] == expected[u]);
    c.digest = Fnv1a(stripped[k], c.digest);
  }
  return c;
}

/// Counts `ok` into the result, naming the first few bad lines.
void Count(const std::vector<char>& ok, std::size_t first, const char* what,
           RunResult& res) {
  int named = 0;
  for (std::size_t k = 0; k < ok.size(); ++k) {
    ++res.attempted;
    if (ok[k]) continue;
    ++res.failed;
    if (named++ < 5) {
      res.Fail("served response " + std::to_string(first + k) + " " + what);
    }
  }
}

/// 0: result-cache hit, 1: miss that runs only the model, 2: miss that
/// also simulates.
int KindOf(const std::string& scenario_text, const std::string& response) {
  if (response.find("\"cache\":\"hit\"") != std::string::npos) return 0;
  return scenario_text.find("sim.messages") != std::string::npos ? 2 : 1;
}

/// The k-th CPU (cyclically) of those this process may run on, as a set.
cpu_set_t NthCpu(const cpu_set_t& allowed, int k) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(k) % cpus.size()], &one);
  return one;
}

}  // namespace

RunResult RunServedWorkload(const RunArgs& a) {
  RunResult res;
  const std::vector<std::string> lines = ReadLines(a.input);
  const std::vector<std::string> texts = ServedScenarioTexts(lines);

  // Per segment: the fixed offered rate over lines [0, fixed_n), then
  // kBursts bursts of burst_n lines each, up to seg_end. Most of the time
  // goes to the bursts, which carry the gated figures.
  const int segments =
      std::max(1, static_cast<int>(std::lround(kSegmentsPerSecond * a.seconds)));
  const std::size_t fixed_n = kFixedRequests;
  const std::size_t burst_n = kBurstRequests;
  const std::size_t seg_end = fixed_n + kBursts * burst_n;
  if (seg_end > lines.size()) {
    throw std::runtime_error("served input too short for the schedule");
  }
  std::vector<coc::Scenario> parsed;
  for (std::size_t i = 0; i < seg_end; ++i) {
    parsed.push_back(coc::ParseScenario(texts[i]));
  }
  std::vector<std::string> warm_lines;
  for (const coc::Scenario& w : WarmupScenarios(parsed)) {
    warm_lines.push_back(EvaluateLine(w.Serialize()));
  }

  // Throughput and latency are scaled by a HostProbe run on the instance's
  // CPU right after each burst, as in the batch workloads (README,
  // "Host-speed scaling"); the raw_ ones are printed. Set-up (mostly thread
  // and socket wake-ups) is not: scaling it made its spread wider.
  HostProbe probe;
  std::vector<double> setup_s, raw_throughput, raw_client_lat;
  std::vector<double> client_p50_ms, throughput, fixed_p50_ms;
  std::vector<double> fixed_lat, fixed_lag, client_lat;
  double peak_rss = 0;
  std::vector<double> by_kind[3];  // fixed-rate latency per KindOf
  std::vector<std::string> responses(lines.size());
  std::string stats;
  // The first instance's stripped responses, and per later instance and
  // line whether its stripped response is byte-identical to the first's.
  std::vector<std::string> first_stripped;
  std::vector<std::vector<char>> same_as_first;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int seg = 0; seg < segments; ++seg) {
    // Threads started now (server and client) inherit the one CPU. The
    // instances take the allowed CPUs in turn, so a CPU that the host keeps
    // busier than the others does not set the whole run's figures.
    const cpu_set_t one = NthCpu(all, seg);
    sched_setaffinity(0, sizeof(one), &one);
    // Set-up: a fresh server starts accepting and answers one warm-up
    // request per distinct system.
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<coc::EvalServer> server = StartServer(warm_lines, res);
    setup_s.push_back(SecondsSince(t0));
    const int port = server->port();

    // The fixed offered rate: latency from each request's due time.
    const OpenLoopResult fixed =
        Phase(port, lines, 0, Evenly(kServedRate, fixed_n), responses,
              kServedConnections, 0);
    const std::vector<double>& lat = fixed.latency_ms;
    fixed_p50_ms.push_back(Median(lat));
    fixed_lat.insert(fixed_lat.end(), lat.begin(), lat.end());
    for (std::size_t i = 0; i < fixed_n; ++i) {
      by_kind[KindOf(texts[i], responses[i])].push_back(lat[i]);
    }
    fixed_lag.insert(fixed_lag.end(), fixed.lag_ms.begin(), fixed.lag_ms.end());

    // Bursts of fresh lines with every request due at once (a closed
    // loop), so the CPU is never idle and no request pays the host's
    // variable wake-up delays that the fixed-rate latency includes.
    //  - On kServedConnections connections, completions per second is the
    //    served throughput.
    //  - On one connection, send-to-response time is the latency one
    //    client sees sending back to back, with no other request competing
    //    for the CPU. With two, a request's time would depend on how the
    //    scheduler interleaves it with the other connection's, which made
    //    its p50 spread by 0.11 of its median over ten seeds.
    std::vector<double> alone;
    for (std::size_t b = 0; b < kBursts; ++b) {
      const bool one_client = b % 3 == 1;  // bursts 1 and 4
      const OpenLoopResult burst = Phase(
          port, lines, fixed_n + b * burst_n, std::vector<double>(burst_n, 0.0),
          responses, one_client ? 1 : kServedConnections, 0);
      const double scale = kProbeNominalS / probe.Run();
      if (!one_client) {
        raw_throughput.push_back(static_cast<double>(burst_n) / burst.wall_s);
        throughput.push_back(raw_throughput.back() / scale);
        continue;
      }
      for (std::size_t i = 0; i < burst_n; ++i) {
        raw_client_lat.push_back(burst.latency_ms[i] - burst.lag_ms[i]);
        alone.push_back(raw_client_lat.back() * scale);
      }
    }
    client_p50_ms.push_back(Median(alone));
    client_lat.insert(client_lat.end(), alone.begin(), alone.end());
    if (seg == segments - 1) {
      const std::string s =
          coc::SubmitLine("127.0.0.1", port, "{\"op\":\"stats\"}\n");
      stats = s.substr(0, s.size() - 1);
    }
    StopServer(server, res);
    sched_setaffinity(0, sizeof(all), &all);
    // Peak memory of one fresh server and its client, read after the first
    // instance: memory the allocator keeps from earlier instances would
    // otherwise add up to about twice that, by an amount that varies from
    // run to run. It is read before any offline check runs, so the peak is
    // not the checker's.
    if (seg == 0) peak_rss = PeakRssMb();

    std::vector<std::string> stripped = Stripped(responses, 0, seg_end);
    if (seg == 0) {
      first_stripped = std::move(stripped);
    } else {
      std::vector<char>& same = same_as_first.emplace_back();
      for (std::size_t i = 0; i < seg_end; ++i) {
        same.push_back(stripped[i] == first_stripped[i]);
      }
    }
    for (std::size_t i = 0; i < seg_end; ++i) responses[i].clear();
  }

  // The ladder on one more instance: max_rps is the highest rung whose p99
  // stays under the limit with no growing backlog (the last tenth of the
  // rung sent no later than the limit); it stops at the first failure.
  // Unpinned, like `coc_cli serve`.
  std::unique_ptr<coc::EvalServer> server = StartServer(warm_lines, res);
  double max_rps = 0;
  std::string ladder;
  std::size_t next = seg_end;
  for (const double rate : kLadder) {
    const auto n = static_cast<std::size_t>(rate * kRungSeconds);
    if (next + n > lines.size()) break;
    const OpenLoopResult g =
        Phase(server->port(), lines, next, Evenly(rate, n), responses,
              kServedConnections, 200);
    next += n;
    const double p99 = Quantile(g.latency_ms, 0.99);
    const std::vector<double> tail(
        g.lag_ms.end() - static_cast<long>(n / 10), g.lag_ms.end());
    const bool backlog = Median(tail) > kP99LimitMs;
    ladder += " " + Fmt(rate) + ":" + Fmt(p99) + (backlog ? "(backlog)" : "");
    if (p99 > kP99LimitMs || backlog) break;
    max_rps = rate;
  }
  StopServer(server, res);

  // Output checks: the first instance and the ladder against offline
  // evaluation, every later instance against the first.
  const OfflineCheck first = CheckOffline(texts, first_stripped, 0, a.threads);
  Count(first.ok, 0, "differs from offline evaluation", res);
  for (const std::vector<char>& same : same_as_first) {
    std::vector<char> ok(seg_end);
    for (std::size_t i = 0; i < seg_end; ++i) ok[i] = first.ok[i] && same[i];
    Count(ok, 0, "differs from offline evaluation on a later instance", res);
  }
  Count(CheckOffline(texts, Stripped(responses, seg_end, next), seg_end,
                     a.threads).ok,
        seg_end, "differs from offline evaluation on the ladder", res);
  const std::string digest = Hex64(first.digest);

  res.Add("setup_s", Median(setup_s), "s");
  res.Add("scenarios_per_s", Median(throughput), "1/s");
  res.Add("latency_p50_ms", Median(client_lat), "ms");
  res.Add("peak_rss_mb", peak_rss, "MB");

  res.notes.push_back(
      "unscaled: scenarios_per_s " + Fmt(Median(raw_throughput)) +
      " 1/s, latency_p50_ms " + Fmt(Median(raw_client_lat)) + " ms");
  res.notes.push_back(
      std::to_string(segments) + " server instances; per instance " +
      std::to_string(fixed_n) + " requests at " + Fmt(kServedRate) +
      " 1/s, then " + std::to_string(kBursts) + " bursts of " +
      std::to_string(burst_n) + " at once (" +
      std::to_string(kThroughputBursts) + " over " +
      std::to_string(kServedConnections) + " connections, " +
      std::to_string(kBursts - kThroughputBursts) +
      " over one), each on one CPU, the CPUs in turn");
  std::string per_instance =
      "per instance (scaled one-client p50 ms, scaled 1/s, fixed-rate p50 ms):";
  for (int seg = 0; seg < segments; ++seg) {
    const auto first =
        throughput.begin() + seg * static_cast<long>(kThroughputBursts);
    per_instance +=
        " " + Fmt(client_p50_ms[seg]) + "," +
        Fmt(Median(std::vector<double>(first, first + kThroughputBursts))) +
        "," + Fmt(fixed_p50_ms[seg]);
  }
  res.notes.push_back(per_instance);
  res.notes.push_back("fixed_rate_p50_ms " + Fmt(Median(fixed_lat)) +
                      " ms, latency_p99_ms " + Fmt(Quantile(fixed_lat, 0.99)) +
                      " ms (" + std::to_string(fixed_lat.size()) +
                      " requests at " + Fmt(kServedRate) +
                      " 1/s, timed from the due time; the offered rate is " +
                      Fmt(kServedRate / Median(throughput)) +
                      " of the measured throughput)");
  // What each kind of request costs at the light fixed load, and its share
  // of the summed latency: the measured side of the generator's mix.
  double total_ms = 0;
  for (const std::vector<double>& v : by_kind) {
    for (const double x : v) total_ms += x;
  }
  std::string kinds = "fixed-rate by kind (p50 ms, requests, share of time):";
  const char* kKindNames[] = {"hit", "model-miss", "sim"};
  for (int k = 0; k < 3; ++k) {
    double sum = 0;
    for (const double x : by_kind[k]) sum += x;
    kinds += std::string(" ") + kKindNames[k] + " " + Fmt(Median(by_kind[k])) +
             "," + std::to_string(by_kind[k].size()) + "," +
             Fmt(total_ms > 0 ? sum / total_ms : 0);
  }
  res.notes.push_back(kinds);
  res.notes.push_back("gen_lag_p99_ms " + Fmt(Quantile(fixed_lag, 0.99)) +
                      " ms");
  res.notes.push_back("max_rps " + Fmt(max_rps) + " 1/s (p99 limit " +
                      Fmt(kP99LimitMs) + " ms; rate:p99_ms" + ladder + ")");
  res.notes.push_back("stats " + stats);
  res.notes.push_back("digest " + digest);
  return res;
}

}  // namespace perfbench
