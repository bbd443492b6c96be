// Open-loop load generator: requests are due on a fixed schedule whether or
// not earlier ones have finished, so a stalled server shows up as late
// sends and long latencies instead of as less offered load.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

struct OpenLoopResult {
  /// Per request, indexed like the schedule: completion minus due time
  /// (the wait a stall imposes on later requests is included).
  std::vector<double> latency_ms;
  /// Per request: send time minus due time — how late the generator ran.
  std::vector<double> lag_ms;
  /// send() accepted the response (char, not bool: workers write
  /// neighbouring entries concurrently).
  std::vector<char> ok;
  double wall_s = 0;  ///< start to last completion
};

/// Request i is due `due_s[i]` seconds after the start (non-decreasing).
/// `connections` threads each take the next request in schedule order, wait
/// for its due time and call `send(i)`, which blocks until the response
/// arrives and returns whether it is acceptable. At most `connections`
/// requests are in flight. `send` must be safe to call concurrently.
/// A connection sleeps to `spin_us` before each due time and spins the
/// rest, so its own wake-up jitter does not show as latency; pass 0 when
/// client and server share a CPU, where the spin would take it from the
/// server.
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, int connections,
                           const std::function<bool(std::size_t)>& send,
                           int spin_us = 200);

}  // namespace perfbench
