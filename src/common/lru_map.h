// LruMap — the one least-recently-used map behind every memo cache in the
// tree (the Engine's system, model and rebind-source maps, and the server's
// result cache). Entries live in a list ordered most-recent-first, plus a
// key index into it:
//   * Find touches: a hit moves the entry to the front;
//   * Insert puts the entry at the front, then drops entries from the back
//     while the map holds more than `capacity` of them, and returns how many
//     it dropped. Capacity 0 means unbounded.
// Callers whose "0" means "disabled" (the rebind-source table, the result
// cache) skip the Insert themselves; LruMap has one capacity meaning.
//
// Not thread-safe: every caller keeps its map under the mutex it already
// holds for the surrounding bookkeeping.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace coc {

template <class K, class V>
class LruMap {
 public:
  using Entry = std::pair<K, V>;

  explicit LruMap(std::size_t capacity = 0) : capacity_(capacity) {}

  /// The value under `key`, touched to most-recent; nullptr on a miss. The
  /// pointer stays valid until the entry is evicted.
  V* Find(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Stores `value` under `key` as the most recent entry (replacing any
  /// value already there), then evicts least-recent entries past the
  /// capacity. Returns the number evicted.
  std::size_t Insert(K key, V value) {
    if (V* existing = Find(key)) {
      *existing = std::move(value);
      return 0;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(std::move(key), order_.begin());
    std::size_t evicted = 0;
    while (capacity_ > 0 && order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  std::size_t size() const { return order_.size(); }

  /// Most-recent-first iteration over (key, value) entries; does not touch.
  typename std::list<Entry>::const_iterator begin() const {
    return order_.begin();
  }
  typename std::list<Entry>::const_iterator end() const {
    return order_.end();
  }

 private:
  std::size_t capacity_;
  std::list<Entry> order_;  ///< front = most recently touched
  std::unordered_map<K, typename std::list<Entry>::iterator> index_;
};

}  // namespace coc
