#include "open_loop.h"

#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace perfbench {

OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, int connections,
                           const std::function<bool(std::size_t)>& send,
                           int spin_us) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = due_s.size();
  OpenLoopResult r;
  r.latency_ms.assign(n, 0);
  r.lag_ms.assign(n, 0);
  r.ok.assign(n, 0);
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const Clock::time_point start = Clock::now();
  auto ms_since = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  auto worker = [&] {
    // Send on time: the default 50 us timer slack and the sleep's wake-up
    // jitter would otherwise show up as latency, so sleep to just short of
    // the due time and spin the rest.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const auto spin = std::chrono::microseconds(spin_us);
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due - spin);
        while (Clock::now() < due) {
        }
        const Clock::time_point at = Clock::now();
        const bool ok = send(i);
        const Clock::time_point done = Clock::now();
        r.lag_ms[i] = ms_since(due, at);
        r.latency_ms[i] = ms_since(due, done);
        r.ok[i] = ok;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      next.store(n);
    }
  };
  std::vector<std::thread> pool;
  for (int c = 0; c < connections; ++c) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return r;
}

}  // namespace perfbench
