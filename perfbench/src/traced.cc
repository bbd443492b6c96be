// The traced run: per-layer metrics. The benchmark replays the workload by
// calling each layer's public functions itself (the path Engine::EvaluateInto
// and RequestHandler::HandleLine take), recording a span around every call,
// and checks that the replay renders byte-identical output. A fixed probe
// set on the workload's first scenario then times the per-call costs the
// replay may not reach (for example the simulator on `whatif`).
#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "api/engine.h"
#include "api/report.h"
#include "bench.h"
#include "cli/config_parser.h"
#include "common/json.h"
#include "harness/sweep.h"
#include "model/compiled_model.h"
#include "open_loop.h"
#include "server/protocol.h"
#include "sim/coc_system_sim.h"
#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Replay-side caches, keyed like the Engine's: systems by (spec, ICN2
/// override), models by (system, options, workload) with the latest model
/// of each (system, options) family as the rebind source.
struct Layers {
  struct System {
    coc::Experiment exp;
    std::shared_ptr<const coc::CocSystemSim> sim;
  };
  struct Model {
    std::shared_ptr<const coc::CompiledModel> model;
    std::optional<double> saturation;
  };
  std::map<std::string, std::shared_ptr<System>> systems;
  std::map<std::string, std::shared_ptr<Model>> models;
  std::map<std::string, std::shared_ptr<const coc::CompiledModel>> families;
  coc::SimScratch scratch;
  std::vector<coc::TrafficEvent> traffic;
  coc::RoutedPath routed;
};

/// Work counted alongside the spans (units a per-call metric divides by).
struct Counts {
  std::int64_t parsed = 0;       ///< scenarios parsed
  std::int64_t model_points = 0; ///< Evaluate/EvaluateMany rate points
  std::int64_t sweep_points = 0;
  std::int64_t sim_msgs = 0;     ///< messages generated/routed/simulated
  std::int64_t delivered = 0;
  double simulated_us = 0;
};

/// Canonical text of the scenario fields a compiled model depends on.
std::string ModelKey(const coc::Scenario& s, bool with_workload) {
  coc::Scenario k;
  k.name = "k";
  k.system = s.system;
  k.icn2_override = s.icn2_override;
  k.model = s.model;
  if (with_workload) k.workload = s.workload;
  return k.Serialize();
}

/// The sim budget a scenario asks for (as the Engine derives it).
coc::SimConfig SimBudget(const coc::Scenario& s, double lambda_g) {
  coc::SimConfig cfg = coc::DefaultSimBudget(lambda_g);
  cfg.seed = s.sim_seed;
  if (s.sim_messages) {
    cfg.measured_messages = *s.sim_messages;
    cfg.warmup_messages = cfg.measured_messages / 10;
    cfg.drain_messages = cfg.measured_messages / 10;
  }
  cfg.condis_mode = s.condis;
  if (s.sim_max_events) cfg.max_events = *s.sim_max_events;
  return cfg;
}

Layers::System& GetSystem(const coc::Scenario& s, Layers& c, SpanRecorder* rec,
                          std::int64_t req) {
  auto& slot = c.systems[SystemKey(s)];
  if (!slot) {
    ScopedSpan sp(rec, "system.build", req);
    slot = std::make_shared<Layers::System>(
        Layers::System{coc::LoadExperiment(s.system), nullptr});
    if (s.icn2_override) {
      slot->exp.system = slot->exp.system.WithIcn2Topology(*s.icn2_override);
    }
  }
  return *slot;
}

/// One simulation through the sim layer's public calls. Traffic and path
/// building are timed on their own first; Run repeats them inside, so the
/// engine loop's share is (run - traffic - path) / run.
coc::SimResult Simulate(const coc::SystemConfig& sys, Layers::System& entry,
                        const coc::SimConfig& cfg, Layers& c,
                        SpanRecorder* rec, std::int64_t req, Counts& n) {
  if (!entry.sim) {
    ScopedSpan sp(rec, "sim.construct", req);
    entry.sim = std::make_shared<const coc::CocSystemSim>(sys);
  }
  const std::int64_t total =
      cfg.warmup_messages + cfg.measured_messages + cfg.drain_messages;
  {
    ScopedSpan sp(rec, "sim.traffic", req);
    coc::GenerateTraffic(sys, cfg, total, c.traffic);
  }
  {
    ScopedSpan sp(rec, "sim.path", req);
    for (const coc::TrafficEvent& ev : c.traffic) {
      entry.sim->BuildRoutedPathInto(ev.src, ev.dst, 0, c.routed);
    }
  }
  coc::SimResult sr;
  {
    ScopedSpan sp(rec, "sim.run", req);
    sr = entry.sim->Run(cfg, c.scratch);
  }
  n.sim_msgs += total;
  n.delivered += sr.delivered;
  n.simulated_us += sr.duration;
  return sr;
}

/// Engine::EvaluateInto through the layers' public calls, filling `report`
/// in place so a failure keeps the analyses that completed.
void EvaluateLayers(const coc::Scenario& s, std::int64_t req, Layers& c,
                    SpanRecorder* rec, Counts& n, coc::Report& report) {
  report.scenario = s.name;
  report.system_spec = s.system;
  s.Validate();
  Layers::System& entry = GetSystem(s, c, rec, req);
  const coc::SystemConfig& sys = entry.exp.system;
  coc::Workload workload;
  {
    ScopedSpan sp(rec, "api.overlay", req);
    workload = s.workload.ApplyTo(entry.exp.workload, sys);
  }
  report.clusters = sys.num_clusters();
  report.nodes = sys.TotalNodes();
  report.m = sys.m();
  report.icn2_topology = sys.icn2_topology().Name();
  report.icn2_exact_fit = sys.icn2_exact_fit();
  report.message_flits = sys.message().length_flits;
  report.flit_bytes = sys.message().flit_bytes;
  report.workload = workload.Describe();
  const char* note = workload.ModelApproximationNote();

  std::shared_ptr<Layers::Model> m;
  if (s.Has(coc::Analysis::kModel) || s.Has(coc::Analysis::kBottleneck) ||
      s.Has(coc::Analysis::kSaturation)) {
    auto& slot = c.models[ModelKey(s, true)];
    if (!slot) {
      auto& family = c.families[ModelKey(s, false)];
      slot = std::make_shared<Layers::Model>();
      if (family) {
        ScopedSpan sp(rec, "model.rebind", req);
        slot->model = std::make_shared<const coc::CompiledModel>(
            family->Rebind(workload));
      } else {
        ScopedSpan sp(rec, "model.compile", req);
        slot->model =
            std::make_shared<const coc::CompiledModel>(sys, workload, s.model);
      }
      family = slot->model;
    }
    m = slot;
    if (!m->saturation) {
      ScopedSpan sp(rec, "model.saturation", req);
      m->saturation = m->model->SaturationRate(1.0);
    }
  }
  if (s.Has(coc::Analysis::kModel)) {
    coc::ModelAnalysisResult a;
    a.rate = s.rate;
    {
      ScopedSpan sp(rec, "model.eval", req);
      a.result = m->model->Evaluate(s.rate);
    }
    ++n.model_points;
    a.saturation_rate = *m->saturation;
    if (note != nullptr) a.note = note;
    report.model = std::move(a);
  }
  if (s.Has(coc::Analysis::kBottleneck)) {
    coc::BottleneckAnalysisResult a;
    a.rate = s.rate;
    {
      ScopedSpan sp(rec, "model.bottleneck", req);
      a.report = m->model->Bottleneck(s.rate);
    }
    a.destination_skewed = workload.DestinationSkewed();
    a.saturation_rate = *m->saturation;
    if (note != nullptr) a.note = note;
    report.bottleneck = std::move(a);
  }
  if (s.Has(coc::Analysis::kSaturation)) {
    report.saturation_rate = *m->saturation;
  }
  if (s.Has(coc::Analysis::kSweep)) {
    coc::SweepSpec spec;
    spec.rates = coc::LinearRates(*s.sweep_max_rate, s.sweep_points);
    spec.run_sim = s.sweep_sim;
    spec.sim_base = SimBudget(s, 1e-4);
    spec.model_opts = s.model;
    spec.workload = workload;
    spec.sim_abort_latency = s.sim_abort_latency;
    coc::SweepAnalysisResult a;
    {
      ScopedSpan sp(rec, "harness.sweep", req);
      a.points = coc::RunSweepParallel(sys, spec, 1);
    }
    n.sweep_points += static_cast<std::int64_t>(a.points.size());
    report.sweep = std::move(a);
  }
  if (s.Has(coc::Analysis::kSim)) {
    coc::SimConfig cfg = SimBudget(s, s.rate);
    cfg.workload = workload;
    const coc::SimResult sr = Simulate(sys, entry, cfg, c, rec, req, n);
    coc::SimAnalysisResult a;
    a.rate = s.rate;
    a.seed = cfg.seed;
    a.delivered = sr.delivered;
    a.duration = sr.duration;
    a.mean = sr.latency.Mean();
    a.ci95 = sr.latency.HalfWidth95();
    a.min = sr.latency.Min();
    a.max = sr.latency.Max();
    a.intra_mean = sr.intra_latency.Mean();
    a.intra_count = static_cast<std::int64_t>(sr.intra_latency.Count());
    a.inter_mean = sr.inter_latency.Mean();
    a.inter_count = static_cast<std::int64_t>(sr.inter_latency.Count());
    a.icn1_mean = sr.icn1_util.Mean(sr.duration);
    a.icn1_max = sr.icn1_util.Max(sr.duration);
    a.ecn1_mean = sr.ecn1_util.Mean(sr.duration);
    a.ecn1_max = sr.ecn1_util.Max(sr.duration);
    a.icn2_mean = sr.icn2_util.Mean(sr.duration);
    a.icn2_max = sr.icn2_util.Max(sr.duration);
    report.sim = std::move(a);
  }
}

/// One scenario under its root span: evaluate through the layers, render.
coc::Json ReplayScenario(const coc::Scenario& s, std::int64_t req, Layers& c,
                         SpanRecorder* rec, Counts& n) {
  coc::Report report;
  try {
    EvaluateLayers(s, req, c, rec, n, report);
  } catch (const std::exception& e) {
    report.scenario = s.name;
    report.system_spec = s.system;
    report.status.code = coc::ErrorCodeOf(e);
    report.status.message = e.what();
  }
  ScopedSpan sp(rec, "api.render", req);
  return report.ToJson();
}

/// Batch replay: parse, every scenario through the layers, render the
/// envelope. Returns the dump, byte-comparable to BatchToJson's.
std::string ReplayBatch(const std::string& text, SpanRecorder* rec,
                        Counts& n) {
  ScopedSpan root(rec, "bench.replay", -1);
  std::vector<coc::Scenario> scenarios;
  {
    ScopedSpan sp(rec, "api.parse", -1);
    scenarios = coc::ParseScenarios(text);
  }
  n.parsed += static_cast<std::int64_t>(scenarios.size());
  Layers c;
  coc::Json arr = coc::Json::Array();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto req = static_cast<std::int64_t>(i);
    ScopedSpan sp(rec, "bench.scenario", req);
    arr.Push(ReplayScenario(scenarios[i], req, c, rec, n));
  }
  ScopedSpan sp(rec, "api.dump", -1);
  coc::Json env = coc::Json::Object();
  env.Set("schema_version", coc::kReportSchemaVersion);
  env.Set("reports", std::move(arr));
  return env.Dump();
}

/// Served replay: RequestHandler::HandleLine's path per request line —
/// protocol parse, scenario parse, canonical key, result-cache lookup,
/// evaluation on a miss, response rendering. Returns each response line
/// (without the server's timing block).
std::vector<std::string> ReplayServed(const std::vector<std::string>& lines,
                                      SpanRecorder* rec, Counts& n) {
  ScopedSpan root(rec, "bench.replay", -1);
  Layers c;
  std::map<std::string, coc::Json> cache;
  std::vector<std::string> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto req = static_cast<std::int64_t>(i);
    ScopedSpan sp(rec, "bench.request", req);
    coc::Json request;
    {
      ScopedSpan p(rec, "server.protocol", req);
      request = coc::Json::Parse(lines[i]);
    }
    coc::Scenario s;
    {
      ScopedSpan p(rec, "api.parse", req);
      s = coc::ParseScenario(request.Find("scenario")->AsString());
    }
    ++n.parsed;
    std::string key;
    {
      ScopedSpan p(rec, "api.serialize", req);
      key = s.Serialize();
    }
    auto it = cache.find(key);
    const bool hit = it != cache.end();
    if (!hit) it = cache.emplace(key, ReplayScenario(s, req, c, rec, n)).first;
    ScopedSpan p(rec, "server.respond", req);
    coc::Json response = it->second;
    response.Set("cache", hit ? "hit" : "miss");
    out.push_back(coc::JsonLine(response));
  }
  return out;
}

/// Fixed per-call probes on the workload's first scenario (request -1, so
/// they stay out of the replay's layer shares).
void Probe(const coc::Scenario& first, const std::vector<coc::Scenario>& all,
           SpanRecorder* rec, Counts& n) {
  ScopedSpan root(rec, "bench.probe", -1);
  Layers c;
  for (const coc::Scenario& s : all) {
    ScopedSpan sp(rec, "api.serialize", -1);
    s.Serialize();
  }
  Layers::System& entry = GetSystem(first, c, rec, -1);
  const coc::SystemConfig& sys = entry.exp.system;
  const coc::Workload base = entry.exp.workload;
  std::unique_ptr<coc::CompiledModel> model;
  {
    ScopedSpan sp(rec, "model.compile", -1);
    model = std::make_unique<coc::CompiledModel>(sys, base, first.model);
  }
  // Rebind onto the first workload of this system that differs from the
  // base (the planner's adjacent dial move); none on a single-workload set.
  for (const coc::Scenario& s : all) {
    if (SystemKey(s) != SystemKey(first) || s.workload.Empty()) continue;
    const coc::Workload next = s.workload.ApplyTo(base, sys);
    ScopedSpan sp(rec, "model.rebind", -1);
    model->Rebind(next);
    break;
  }
  double sat = 0;
  {
    ScopedSpan sp(rec, "model.saturation", -1);
    sat = model->SaturationRate(1.0);
  }
  const std::vector<double> rates = coc::LinearRates(0.9 * sat, 8);
  {
    ScopedSpan sp(rec, "model.eval", -1);
    model->EvaluateMany(rates);
  }
  n.model_points += static_cast<std::int64_t>(rates.size());
  {
    ScopedSpan sp(rec, "model.bottleneck", -1);
    model->Bottleneck(0.5 * sat);
  }
  coc::SweepSpec spec;
  spec.rates = rates;
  spec.run_sim = false;
  spec.model_opts = first.model;
  spec.workload = base;
  {
    ScopedSpan sp(rec, "harness.sweep", -1);
    n.sweep_points += static_cast<std::int64_t>(
        coc::RunSweepParallel(sys, spec, 1).size());
  }
  coc::SimConfig cfg = coc::DefaultSimBudget(0.2 * sat);
  cfg.measured_messages = 2000;
  cfg.warmup_messages = cfg.drain_messages = 200;
  cfg.workload = base;
  Simulate(sys, entry, cfg, c, rec, -1, n);
}

/// RequestHandler::HandleLine on a miss and on repeated hits, then the
/// same hit through a loopback socket. Returns the handler's stats.
coc::Json ProbeServer(const std::string& line, SpanRecorder* rec) {
  coc::EvalServer server(ServedServerOptions());
  server.Start();
  coc::RequestHandler& handler = server.handler();
  {
    ScopedSpan sp(rec, "server.handle_miss", -1);
    handler.HandleLine(line);
  }
  for (int i = 0; i < 200; ++i) {
    ScopedSpan sp(rec, "server.handle_hit", -1);
    handler.HandleLine(line);
  }
  for (int i = 0; i < 200; ++i) {
    ScopedSpan sp(rec, "server.roundtrip_hit", -1);
    coc::SubmitLine("127.0.0.1", server.port(), line);
  }
  coc::Json stats = handler.StatsJson();
  server.Stop();
  server.Wait();
  return stats;
}

double Us(const std::map<std::string, SpanTotals>& t, const std::string& name,
          double units) {
  const auto it = t.find(name);
  if (it == t.end() || units <= 0) return 0;
  return static_cast<double>(it->second.total_ns) / 1e3 / units;
}

std::int64_t CountOf(const std::map<std::string, SpanTotals>& t,
                     const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second.count;
}

std::int64_t StatInt(const coc::Json& stats, const char* block,
                     const char* key) {
  return stats.Find(block)->Find(key)->AsInt();
}

}  // namespace

RunResult RunTraced(const RunArgs& a) {
  RunResult res;
  const bool served = a.workload == "served";
  SpanRecorder rec;
  Counts n;

  // Inputs. The served replay takes the first requests of the stream.
  std::string text;
  std::vector<std::string> lines;
  std::vector<coc::Scenario> scenarios;
  if (served) {
    lines = ReadLines(a.input);
    lines.resize(std::min<std::size_t>(lines.size(), 1500));
    for (const std::string& t : ServedScenarioTexts(lines)) {
      scenarios.push_back(coc::ParseScenario(t));
    }
  } else {
    text = ReadFile(a.input);
    scenarios = coc::ParseScenarios(text);
  }

  // Each pass runs the program's own path (untraced; its output is the
  // reference the replay must reproduce), then the replay with tracing off
  // and with tracing on. The two replays differ only in the recorder, so
  // their time difference is the tracing overhead.
  const auto replay = [&](SpanRecorder* r, Counts& c) {
    return served ? ReplayServed(lines, r, c)
                  : std::vector<std::string>{ReplayBatch(text, r, c)};
  };
  std::vector<double> overhead_pct;
  double serial_eval_s = 0;
  std::string serial_json;
  std::size_t model_builds = 0, model_rebinds = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < 5 && (pass == 0 || SecondsSince(start) <
                                                   0.5 * a.seconds);
       ++pass) {
    std::vector<std::string> plain;
    if (served) {
      coc::RequestHandler handler(ServedServerOptions().engine,
                                  ServedServerOptions().cache_entries, {});
      for (const std::string& line : lines) {
        plain.push_back(handler.HandleLine(line));
      }
      const coc::Engine::CacheStats st = handler.engine().Stats();
      model_builds = st.models + st.model_evictions;
      model_rebinds = st.model_rebinds;
    } else {
      coc::Engine engine;
      const std::vector<coc::Scenario> parsed = coc::ParseScenarios(text);
      const auto e0 = Clock::now();
      const std::vector<coc::Report> reports = engine.EvaluateBatch(parsed, 1);
      serial_eval_s = SecondsSince(e0);
      plain.push_back(coc::BatchToJson(reports).Dump());
      const coc::Engine::CacheStats st = engine.Stats();
      model_builds = st.models + st.model_evictions;
      model_rebinds = st.model_rebinds;
    }

    Counts off, on;
    const auto t0 = Clock::now();
    replay(nullptr, off);
    const double off_s = SecondsSince(t0);
    const auto t1 = Clock::now();
    const std::vector<std::string> traced = replay(&rec, on);
    const double on_s = SecondsSince(t1);
    overhead_pct.push_back(100 * (on_s - off_s) / off_s);
    n.parsed += on.parsed;
    n.model_points += on.model_points;
    n.sweep_points += on.sweep_points;
    n.sim_msgs += on.sim_msgs;
    if (pass == 0) {
      n.delivered = on.delivered;
      n.simulated_us = on.simulated_us;
      serial_json = plain.front();
    }

    // Output check: the replay renders what the program rendered.
    const std::int64_t items =
        served ? static_cast<std::int64_t>(lines.size())
               : static_cast<std::int64_t>(scenarios.size());
    std::int64_t bad = 0;
    if (served) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        bad += StripServed(traced[i]) != StripServed(plain[i]);
      }
    } else if (traced.front() != plain.front()) {
      bad = items;
    }
    res.attempted += items;
    res.failed += bad;
    if (bad > 0) res.Fail("traced replay output differs from the program's");
  }

  // Batch scaling: `threads` workers against one, same output.
  double scaling_eff = 1;
  {
    std::vector<coc::Scenario> unique;
    std::map<std::string, int> seen;
    for (const coc::Scenario& s : scenarios) {
      if (seen.emplace(s.Serialize(), 0).second) unique.push_back(s);
    }
    std::string one_json;
    if (served) {
      coc::Engine engine;
      const auto t0 = Clock::now();
      const std::vector<coc::Report> one = engine.EvaluateBatch(unique, 1);
      serial_eval_s = SecondsSince(t0);
      one_json = coc::BatchToJson(one).Dump();
    } else {
      one_json = serial_json;
    }
    coc::Engine engine;
    const auto t0 = Clock::now();
    const std::vector<coc::Report> par =
        engine.EvaluateBatch(served ? unique : scenarios, a.threads);
    scaling_eff = serial_eval_s / (a.threads * SecondsSince(t0));
    if (coc::BatchToJson(par).Dump() != one_json) {
      res.Fail("batch output differs between 1 and " +
               std::to_string(a.threads) + " threads");
    }
  }

  Probe(scenarios.front(), scenarios, &rec, n);
  const std::string probe_line =
      served ? lines.front() : EvaluateLine(scenarios.front().Serialize());
  coc::Json stats = ProbeServer(probe_line, &rec);

  // Generator lag and server counters. served: a short open loop at the
  // workload's offered rate against a real server. Batch workloads are a
  // closed loop, where a batch is due once the previous answer is rendered:
  // the lag is the driver's own dead time between consecutive warm-up
  // batches, and the counters are the server probe's.
  double gen_lag_ms = 0;
  if (served) {
    const std::vector<std::string> all = ReadLines(a.input);
    coc::EvalServer server(ServedServerOptions());
    server.Start();
    const std::size_t count =
        std::min(all.size(), static_cast<std::size_t>(kServedRate * 0.2 *
                                                      a.seconds));
    std::vector<double> due(count);
    for (std::size_t i = 0; i < count; ++i) due[i] = i / kServedRate;
    const OpenLoopResult r =
        RunOpenLoop(due, kServedConnections, [&](std::size_t i) {
          coc::SubmitLine("127.0.0.1", server.port(), all[i]);
          return true;
        });
    gen_lag_ms = Quantile(r.lag_ms, 0.99);
    stats = coc::Json::Parse(
        coc::SubmitLine("127.0.0.1", server.port(), "{\"op\":\"stats\"}\n"));
    server.Stop();
    server.Wait();
  } else {
    const std::vector<coc::Scenario> warm = WarmupScenarios(scenarios);
    std::vector<double> gaps;
    Clock::time_point answered{};
    for (int k = 0; k < 21; ++k) {
      const auto due = Clock::now();
      if (k > 0) {
        gaps.push_back(
            std::chrono::duration<double, std::milli>(due - answered).count());
      }
      coc::Engine engine;
      coc::BatchToJson(engine.EvaluateBatch(warm, a.threads)).Dump();
      answered = Clock::now();
    }
    gen_lag_ms = Quantile(gaps, 0.99);
  }

  // Per-layer metrics.
  const auto totals = TotalsByName(rec.spans());
  const auto per = [&](const std::string& name) {
    return Us(totals, name, static_cast<double>(CountOf(totals, name)));
  };
  const double run_ns = Us(totals, "sim.run", 1) * 1e3;
  const double traffic_ns = Us(totals, "sim.traffic", 1) * 1e3;
  const double path_ns = Us(totals, "sim.path", 1) * 1e3;
  const double msgs = static_cast<double>(n.sim_msgs);
  const std::int64_t hits = StatInt(stats, "cache", "hits");
  const std::int64_t misses = StatInt(stats, "cache", "misses");

  // Layer shares of the replay's time, from self times of spans under the
  // replay roots (probes excluded).
  std::map<std::string, double> share;
  {
    const std::vector<Span>& spans = rec.spans();
    const std::vector<std::int64_t> self = SelfTimes(spans);
    std::vector<int> in_replay(spans.size(), 0);
    double replay_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const int p = spans[i].parent;
      in_replay[i] = p < 0 ? spans[i].name == "bench.replay" : in_replay[p];
      if (p < 0 && in_replay[i]) {
        replay_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      }
      if (in_replay[i]) {
        share[LayerOf(spans[i].name)] += static_cast<double>(self[i]);
      }
    }
    for (auto& [layer, ns] : share) ns /= replay_ns;
  }

  res.Add("api.parse_us",
          Us(totals, "api.parse", static_cast<double>(n.parsed)), "us");
  res.Add("api.serialize_us", per("api.serialize"), "us");
  res.Add("api.render_us", per("api.render"), "us");
  res.Add("api.batch_scaling_eff", scaling_eff, "ratio");
  res.Add("api.self_share", share["api"], "ratio");
  res.Add("system.build_ms", per("system.build") / 1e3, "ms");
  res.Add("system.self_share", share["system"], "ratio");
  res.Add("model.compile_us", per("model.compile"), "us");
  res.Add("model.rebind_us", per("model.rebind"), "us");
  res.Add("model.rebind_ratio",
          model_builds ? static_cast<double>(model_rebinds) / model_builds : 0,
          "ratio");
  res.Add("model.eval_us_per_point",
          Us(totals, "model.eval", static_cast<double>(n.model_points)), "us");
  res.Add("model.bottleneck_us", per("model.bottleneck"), "us");
  res.Add("model.saturation_us", per("model.saturation"), "us");
  res.Add("model.self_share", share["model"], "ratio");
  res.Add("harness.sweep_point_us",
          Us(totals, "harness.sweep", static_cast<double>(n.sweep_points)),
          "us");
  res.Add("harness.self_share", share["harness"], "ratio");
  res.Add("sim.construct_ms", per("sim.construct") / 1e3, "ms");
  res.Add("sim.traffic_ns_per_msg", traffic_ns / msgs, "ns");
  res.Add("sim.path_ns_per_msg", path_ns / msgs, "ns");
  res.Add("sim.run_ns_per_msg", run_ns / msgs, "ns");
  res.Add("sim.loop_share", (run_ns - traffic_ns - path_ns) / run_ns, "ratio");
  // Exact guards: the first replay pass plus the probe (later passes
  // repeat the same simulations and are not summed).
  res.Add("sim.delivered", static_cast<double>(n.delivered), "count");
  res.Add("sim.simulated_us", n.simulated_us, "us");
  res.Add("sim.self_share", share["sim"], "ratio");
  res.Add("server.handle_hit_us", per("server.handle_hit"), "us");
  res.Add("server.handle_miss_us", per("server.handle_miss"), "us");
  res.Add("server.socket_us",
          per("server.roundtrip_hit") - per("server.handle_hit"), "us");
  res.Add("server.cache_hit_ratio",
          hits + misses ? static_cast<double>(hits) / (hits + misses) : 0,
          "ratio");
  res.Add("server.coalesced",
          static_cast<double>(StatInt(stats, "cache", "coalesced")), "count");
  res.Add("server.shed", static_cast<double>(StatInt(stats, "server", "shed")),
          "count");
  res.Add("server.model_evictions",
          static_cast<double>(StatInt(stats, "engine", "model_evictions")),
          "count");
  res.Add("server.self_share", share["server"], "ratio");
  res.Add("bench.gen_lag_ms", gen_lag_ms, "ms");
  res.Add("bench.trace_overhead_pct", Median(overhead_pct), "%");
  res.Add("bench.self_share", share["bench"], "ratio");

  const std::string spans_path = a.out_dir + "/" + a.workload + "-seed" +
                                 std::to_string(a.seed) + ".spans.json";
  rec.WriteJson(spans_path);
  res.notes.push_back("spans: " + std::to_string(rec.spans().size()) +
                      " written to " + spans_path);
  return res;
}

}  // namespace perfbench
