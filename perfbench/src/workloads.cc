// Fixtures shared by every run, and the untraced run of the batch workloads
// (whatif, validate): end-to-end metrics through Engine::EvaluateBatch.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/engine.h"
#include "api/report.h"
#include "bench.h"
#include "common/json.h"
#include "util.h"

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  std::cerr << "perfbench: CHECK FAILED: " << what << '\n';
  correct = false;
}

coc::ServerOptions ServedServerOptions() {
  coc::ServerOptions opts;
  opts.threads = 2;
  return opts;
}

std::string SystemKey(const coc::Scenario& s) {
  return s.system + '\x1f' +
         (s.icn2_override ? s.icn2_override->ToString() : std::string());
}

std::vector<coc::Scenario> WarmupScenarios(
    const std::vector<coc::Scenario>& scenarios) {
  std::map<std::string, coc::Scenario> by_system;
  std::vector<std::string> order;
  for (const coc::Scenario& s : scenarios) {
    const std::string key = SystemKey(s);
    auto it = by_system.find(key);
    if (it == by_system.end()) {
      coc::Scenario w;
      w.name = "warmup" + std::to_string(order.size());
      w.system = s.system;
      w.icn2_override = s.icn2_override;
      w.rate = s.rate;
      it = by_system.emplace(key, w).first;
      order.push_back(key);
    }
    if (s.Has(coc::Analysis::kSim) || (s.Has(coc::Analysis::kSweep) &&
                                       s.sweep_sim)) {
      it->second.Request(coc::Analysis::kSim);
      it->second.sim_messages = 100;
    }
  }
  std::vector<coc::Scenario> out;
  for (const std::string& key : order) out.push_back(by_system.at(key));
  return out;
}

std::string EvaluateLine(const std::string& scenario_text) {
  coc::Json request = coc::Json::Object();
  request.Set("op", "evaluate");
  request.Set("scenario", scenario_text);
  return coc::JsonLine(request);
}

std::vector<std::string> ServedScenarioTexts(
    const std::vector<std::string>& lines) {
  std::vector<std::string> texts;
  texts.reserve(lines.size());
  for (const std::string& line : lines) {
    const coc::Json req = coc::Json::Parse(line);
    const coc::Json* text = req.Find("scenario");
    if (text == nullptr) throw std::runtime_error("request without scenario");
    texts.push_back(text->AsString());
  }
  return texts;
}

std::string StripServed(const std::string& response_line) {
  std::string body = response_line;
  while (!body.empty() && body.back() == '\n') body.pop_back();
  coc::Json j = coc::Json::Parse(body);
  j.Remove("cache");
  j.Remove("server");
  return j.Dump();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line + '\n');
  }
  return lines;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

namespace {

/// The scenario text cut into consecutive pieces of at most `per_chunk`
/// "[scenario ...]" sections each, in input order.
std::vector<std::string> SplitScenarioText(const std::string& text,
                                           std::size_t per_chunk) {
  std::vector<std::size_t> starts;
  for (std::size_t pos = 0; pos < text.size();) {
    if (text.compare(pos, 10, "[scenario ") == 0) starts.push_back(pos);
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  if (starts.empty() || starts.front() != 0) {
    throw std::runtime_error("input does not start with a [scenario] section");
  }
  std::vector<std::string> chunks;
  for (std::size_t i = 0; i < starts.size(); i += per_chunk) {
    const std::size_t end =
        i + per_chunk < starts.size() ? starts[i + per_chunk] : text.size();
    chunks.push_back(text.substr(starts[i], end - starts[i]));
  }
  return chunks;
}

/// Mean |model - sim| / sim over the reports that carry both, in percent.
double ModelErrPct(const std::vector<coc::Report>& reports, int* count) {
  double sum = 0;
  *count = 0;
  for (const coc::Report& r : reports) {
    if (!r.model || !r.sim || !(r.sim->mean > 0)) continue;
    sum += std::fabs(r.model->result.mean_latency - r.sim->mean) / r.sim->mean;
    ++*count;
  }
  return *count > 0 ? 100.0 * sum / *count : 0;
}

}  // namespace

RunResult RunBatchWorkload(const RunArgs& a) {
  RunResult res;
  const std::string text = ReadFile(a.input);
  const std::vector<coc::Scenario> warmups =
      WarmupScenarios(coc::ParseScenarios(text));
  // Each repetition starts from a fresh Engine (set-up: systems built,
  // simulators constructed, base models compiled by the warm-up scenarios,
  // one at a time). Set-up is short, so it is taken kSetups times per
  // repetition and the last Engine is kept. A repetition then answers the
  // whole input in one of two ways, whichever has had less time so far:
  //  - batch: parse, EvaluateBatch and BatchToJson — the throughput — in
  //    consecutive chunks (50 scenarios for whatif, whose scenarios take
  //    tens of microseconds; one for validate, whose simulations take 0.1
  //    to 0.4 s);
  //  - one at a time: Engine::Evaluate and Report::ToJson per scenario,
  //    serially, each timed — the answer time a planner asking one question
  //    waits for — in the same groups.
  // Both run on one worker. The 4-vCPU host gives the whole VM between one
  // and four cores' worth of time as its neighbours load it, so a figure
  // from 4 busy workers follows that share; scaling over workers is the
  // traced run's api.batch_scaling_eff.
  //
  // The host also slows a single thread by up to 2x for seconds to tens of
  // minutes at a time. Every set-up and every chunk or group is therefore
  // followed by one HostProbe run, and its time is scaled by
  // kProbeNominalS / probe time before the medians are taken: the gated
  // times read as on the host at its usual speed. The raw medians are
  // printed next to them. See README ("Host-speed scaling").
  const int kSetups = 3;
  const std::size_t per_chunk = a.workload == "whatif" ? 50 : 1;
  const std::vector<std::string> chunks = SplitScenarioText(text, per_chunk);
  HostProbe probe;
  std::vector<double> probe_s;
  // Times one call of `fn`, then the probe; returns {raw, scaled} seconds.
  const auto timed = [&](const auto& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double raw = SecondsSince(t0);
    probe_s.push_back(probe.Run());
    return std::pair<double, double>{raw,
                                      raw * kProbeNominalS / probe_s.back()};
  };
  std::vector<std::vector<double>> chunk_s(chunks.size());
  std::vector<std::vector<double>> answer_ms;  // scaled, per scenario
  std::vector<double> setup_s, raw_setup_s, raw_pass_s, raw_answer_ms;
  std::string digest;
  std::int64_t sim_msgs = 0;
  std::size_t scenarios = 0;
  int batches = 0, serial_passes = 0;
  double batch_total_s = 0, serial_total_s = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; batches == 0 || serial_passes == 0 ||
                    SecondsSince(start) < a.seconds;
       ++rep) {
    std::unique_ptr<coc::Engine> engine;
    for (int k = 0; k < kSetups; ++k) {
      engine.reset();
      const auto [raw, scaled] = timed([&] {
        engine = std::make_unique<coc::Engine>();
        for (const coc::Report& r : engine->EvaluateBatch(warmups, 1)) {
          if (!r.status.ok()) {
            res.Fail("warm-up " + r.scenario + ": " + r.status.message);
          }
        }
      });
      raw_setup_s.push_back(raw);
      setup_s.push_back(scaled);
    }

    const auto t1 = std::chrono::steady_clock::now();
    std::vector<coc::Report> reports;
    if (batch_total_s <= serial_total_s) {
      double pass_s = 0;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        std::vector<coc::Report> part;
        const auto [raw, scaled] = timed([&] {
          part = engine->EvaluateBatch(coc::ParseScenarios(chunks[c]), 1);
          const std::string json = coc::BatchToJson(part).Dump();
        });
        pass_s += raw;
        chunk_s[c].push_back(scaled);
        for (coc::Report& r : part) reports.push_back(std::move(r));
      }
      raw_pass_s.push_back(pass_s);
      batch_total_s += SecondsSince(t1);
      ++batches;
    } else {
      const std::vector<coc::Scenario> parsed = coc::ParseScenarios(text);
      answer_ms.resize(parsed.size());
      for (std::size_t g = 0; g < parsed.size(); g += per_chunk) {
        const std::size_t end = std::min(g + per_chunk, parsed.size());
        std::vector<double> raw_ms;
        const auto [raw, scaled] = timed([&] {
          for (std::size_t i = g; i < end; ++i) {
            const auto t2 = std::chrono::steady_clock::now();
            reports.push_back(engine->Evaluate(parsed[i]));
            const std::string json = reports.back().ToJson().Dump();
            raw_ms.push_back(1000 * SecondsSince(t2));
          }
        });
        const double scale = scaled / raw;
        for (std::size_t i = g; i < end; ++i) {
          raw_answer_ms.push_back(raw_ms[i - g]);
          answer_ms[i].push_back(raw_ms[i - g] * scale);
        }
      }
      serial_total_s += SecondsSince(t1);
      ++serial_passes;
    }

    scenarios = reports.size();
    res.attempted += static_cast<std::int64_t>(reports.size());
    for (const coc::Report& r : reports) {
      if (!r.status.ok()) {
        ++res.failed;
        res.Fail("scenario " + r.scenario + " status " + r.status.message);
      }
    }
    // Both ways of answering must render the same batch, on every
    // repetition.
    const std::string d = Hex64(Fnv1a(coc::BatchToJson(reports).Dump()));
    if (rep == 0) {
      digest = d;
      int n = 0;
      const double err = ModelErrPct(reports, &n);
      for (const coc::Report& r : reports) {
        if (r.sim) sim_msgs += r.sim->delivered;
      }
      if (n > 0) {
        res.notes.push_back("model_err_pct " + Fmt(err) + " % (over " +
                            std::to_string(n) + " simulated scenarios)");
      }
    } else if (d != digest) {
      res.Fail("batch output differs between repetitions of one seed");
    }
  }
  // Batch time: the sum over chunks of each chunk's median scaled time.
  double batch = 0;
  for (const std::vector<double>& c : chunk_s) batch += Median(c);
  std::vector<double> median_answer_ms;
  for (const std::vector<double>& v : answer_ms) {
    median_answer_ms.push_back(Median(v));
  }
  res.Add("setup_s", Median(setup_s), "s");
  res.Add("scenarios_per_s", static_cast<double>(scenarios) / batch, "1/s");
  res.Add("latency_p50_ms", Median(median_answer_ms), "ms");
  res.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (sim_msgs > 0) {
    res.notes.push_back("sim_msgs_per_s " +
                        Fmt(static_cast<double>(sim_msgs) / batch) + " 1/s");
  }
  res.notes.push_back(
      "host probe: median " + Fmt(1000 * Median(probe_s)) + " ms over " +
      std::to_string(probe_s.size()) + " runs (nominal " +
      Fmt(1000 * kProbeNominalS) + " ms); unscaled: scenarios_per_s " +
      Fmt(static_cast<double>(scenarios) / Median(raw_pass_s)) +
      " 1/s (median pass), latency_p50_ms " + Fmt(Median(raw_answer_ms)) +
      " ms, setup_s " + Fmt(Median(raw_setup_s)) + " s");
  res.notes.push_back(
      "batch: " + std::to_string(scenarios) + " scenarios; " +
      std::to_string(batches) + " batch passes on one worker in " +
      std::to_string(chunks.size()) + " chunks (" + Fmt(1000 * batch) +
      " ms scaled), " + std::to_string(serial_passes) +
      " passes one scenario at a time (scaled p99 " +
      Fmt(Quantile(median_answer_ms, 0.99)) + " ms over " +
      std::to_string(median_answer_ms.size()) + " scenarios); " +
      std::to_string(setup_s.size()) + " set-ups");
  res.notes.push_back("digest " + digest);
  return res;
}

}  // namespace perfbench
