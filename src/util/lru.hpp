#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace sdft {

/// Bounded associative container with least-recently-used eviction, the
/// storage layer shared by the engine caches (quantification_cache,
/// structure_cache). Not thread-safe — callers hold their own lock.
///
/// A capacity of 0 means unbounded. find() counts as a use; insert()
/// refuses to overwrite (first writer wins, matching the caches' "benign
/// duplicate" contract) but still refreshes the existing entry's recency.
/// Evictions are counted so the caches can surface them in engine_stats.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class lru_map {
 public:
  explicit lru_map(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Pointer to the value (refreshed as most recent), or nullptr. The
  /// pointer is invalidated by any later insert/erase/set_capacity.
  Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts (key, value) as most recent, evicting from the cold end past
  /// capacity. Returns false (and only refreshes recency) if the key
  /// already exists.
  bool insert(const Key& key, Value value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    trim();
    return true;
  }

  /// Inserts or overwrites (key, value) as most recent, evicting from the
  /// cold end past capacity.
  void assign(const Key& key, Value value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    trim();
  }

  /// Calls f(key, value) for every entry, most recent first, without
  /// touching recency.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [key, value] : order_) f(key, value);
  }

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t evictions() const { return evictions_; }

  /// Changes the bound (0 = unbounded) and evicts immediately if needed.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    trim();
  }

  void clear() {
    order_.clear();
    index_.clear();
    evictions_ = 0;
  }

 private:
  void trim() {
    while (capacity_ != 0 && index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  /// The index refers to the key stored in its list node (list nodes never
  /// move), so each key is held once — the quantification cache's keys
  /// are a few hundred bytes each.
  using key_ref = std::reference_wrapper<const Key>;
  struct ref_hash {
    std::size_t operator()(key_ref k) const { return Hash{}(k.get()); }
  };
  struct ref_equal {
    bool operator()(key_ref a, key_ref b) const { return a.get() == b.get(); }
  };

  std::size_t capacity_;
  std::size_t evictions_ = 0;
  std::list<std::pair<const Key, Value>> order_;  ///< front = most recent
  std::unordered_map<key_ref,
                     typename std::list<std::pair<const Key, Value>>::iterator,
                     ref_hash, ref_equal>
      index_;
};

}  // namespace sdft
