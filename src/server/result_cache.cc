#include "server/result_cache.h"

#include <exception>
#include <utility>

namespace coc {

ResultCache::Lookup ResultCache::GetOrCompute(
    const std::string& key, const std::function<Computed()>& compute) {
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Json* hit = lru_.Find(key)) {
      ++stats_.hits;
      return Lookup{*hit, /*hit=*/true};
    }
    const auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      flight = in->second;
    } else {
      flight = std::make_shared<InFlight>();
      inflight_[key] = flight;
      leader = true;
      ++stats_.misses;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> fl(flight->m);
    flight->cv.wait(fl, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    Lookup out{flight->value.report, /*hit=*/true};
    fl.unlock();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    ++stats_.coalesced;
    return out;
  }

  // Leader: compute with no cache lock held.
  Computed value;
  std::exception_ptr error;
  try {
    value = compute();
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error && value.cacheable && capacity_ > 0) {
      stats_.evictions += lru_.Insert(key, value.report);
    }
    // Erasing the in-flight record in the same critical section that
    // inserted the entry makes the transition atomic: a new caller either
    // hits the entry or becomes a fresh leader — never both.
    inflight_.erase(key);
  }
  Lookup out{value.report, /*hit=*/false};
  {
    std::lock_guard<std::mutex> fl(flight->m);
    flight->value = std::move(value);
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return out;
}

ResultCache::Stats ResultCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.capacity = capacity_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace coc
