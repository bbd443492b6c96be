// The evaluation server's wire protocol, factored free of sockets: a
// RequestHandler maps one newline-delimited JSON request line to one
// response line. EvalServer (server.h) feeds it connection bytes; the
// bench drives it directly; tests can exercise every protocol path without
// opening a port.
//
// Requests (one compact JSON object per line):
//   {"op": "evaluate", "scenario": "<one [scenario] INI section>",
//    "deadline_ms": 250}                 // deadline optional
//   {"op": "batch", "scenarios": "<scenario batch INI text>", ...}
//   {"op": "stats"}
//   {"op": "shutdown"}                   // ask the server to drain
//
// Responses (one line each):
//   evaluate  → the scenario's schema_version-2 Report JSON plus
//               "cache": "hit"|"miss" and a "server": {"elapsed_ms": ..}
//               timing block;
//   batch     → the offline BatchToJson envelope, each report carrying its
//               own "cache" field, plus an envelope-level "server" block;
//   stats     → {"schema_version", "cache": {..}, "engine": {..},
//               "server": {..}} counters;
//   failures  → {"status": {"code", "ok": false, "message"}} in the PR-7
//               error taxonomy. A malformed line never tears the
//               connection: line framing keeps the stream in sync and the
//               next request is served normally.
//
// Results are bit-identical to offline batch runs for any worker count:
// every scenario evaluates through Engine::EvaluateBatch, and the "cache"/
// "server" fields are appended to response copies — Report::ToJson itself
// is untouched, which is also why a cached response's report bytes equal
// the original miss's.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "api/engine.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "server/result_cache.h"

namespace coc {

class RequestHandler {
 public:
  RequestHandler(const Engine::Options& engine_opts, std::size_t cache_entries,
                 FaultInjector faults)
      : engine_(engine_opts), cache_(cache_entries), faults_(std::move(faults)) {}

  /// Dispatches one request line (without or with its trailing newline) and
  /// returns the one-line response, newline included. Never throws: every
  /// failure becomes a structured status response. An "op":"shutdown"
  /// request sets *shutdown_requested (when given) after answering ok.
  std::string HandleLine(const std::string& line,
                         bool* shutdown_requested = nullptr);

  /// The "stats" verb's payload: result-cache, Engine-cache and server
  /// request counters.
  Json StatsJson() const;

  // Socket-layer accounting (EvalServer calls these; they only feed the
  // "server" block of StatsJson).
  void CountConnection() { ++connections_; }
  void CountShed() { ++shed_; }
  void CountProtocolError() { ++protocol_errors_; }  ///< e.g. an overlong line

  Engine& engine() { return engine_; }
  const ResultCache& cache() const { return cache_; }

 private:
  /// Handles evaluate (single scenario) and batch (envelope) requests.
  Json Evaluate(const Json& request, bool envelope);

  Engine engine_;
  ResultCache cache_;
  const FaultInjector faults_;
  std::atomic<std::uint64_t> requests_{0};  ///< admitted evaluate/batch ops
  std::atomic<std::uint64_t> evaluated_scenarios_{0};  ///< cache misses run
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace coc
