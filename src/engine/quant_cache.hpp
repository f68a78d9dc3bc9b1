#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>

#include "core/mcs_model.hpp"
#include "util/lru.hpp"
#include "util/spin_mutex.hpp"

namespace sdft {

/// Structural signature of the transient solve FT_C induces, for the FT_C
/// `plan` materialise_ftc(plan, source) would build: the full FT_C
/// structure (gate types and wiring), the numeric content of every basic
/// event (static probability, or the complete CTMC / triggered-CTMC
/// definition, read from `source`), the trigger edges, and the solver
/// inputs (horizon and epsilon). Everything that determines the
/// product-chain probability is encoded byte-exactly; names and the
/// static factor are deliberately excluded, so cutsets that share dynamic
/// sub-structure but differ in their static events map to the same key.
/// FT_C is never built.
std::string ftc_signature(const ftc_plan& plan, const sd_fault_tree& source,
                          double horizon, double epsilon);

/// Thread-safe memoisation of product-chain transient solves, keyed by
/// ftc_signature(). Stores the *chain* failure probability (before
/// the static factor is multiplied back in), so structurally identical
/// dynamic parts are solved once per engine lifetime.
///
/// Keys are compared as full strings — hash collisions cannot produce
/// wrong probabilities. Only successful solves are stored; fallbacks
/// (e.g. product-size overflows) are re-attempted.
///
/// The cache is bounded: entries past `capacity` are evicted least
/// recently used, so a resident process (sdft serve) holds its footprint
/// steady. Eviction can only cost a re-solve, never change a result —
/// hits replay the bit-identical solve a fresh run would produce.
class quantification_cache {
 public:
  /// Default entry bound; one entry is a few hundred bytes, so this caps
  /// the cache at tens of MB in the worst case.
  static constexpr std::size_t default_capacity = 1 << 16;

  struct entry {
    double chain_probability = 0;  ///< Pr[Reach<=t(Failed)] of the chain
    std::size_t chain_states = 0;  ///< product chain size
    // Fast-path counters of the original solve, replayed on every hit so
    // engine_stats aggregates stay meaningful under memoisation.
    std::size_t lumped_orbits = 0;
    std::size_t steps_saved = 0;
    bool packed_keys = false;
  };

  explicit quantification_cache(std::size_t capacity = default_capacity);

  /// Returns the cached solve, counting a hit/miss (a hit refreshes the
  /// entry's LRU recency).
  std::optional<entry> find(const std::string& key) const;

  /// Inserts a solve (first writer wins; duplicates from concurrent
  /// misses are benign since they carry the same value), evicting the
  /// least recently used entry past capacity.
  void store(const std::string& key, const entry& e);

  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;
  std::size_t capacity() const;
  std::size_t evictions() const;

  /// Changes the entry bound (0 = unbounded), evicting immediately.
  void set_capacity(std::size_t capacity);

  /// Drops all entries and resets the counters.
  void clear();

 private:
  /// Every quantifying thread of every run takes this lock once or twice
  /// per dynamic cutset, so it spins before it sleeps (see spin_mutex).
  mutable spin_mutex mutex_;
  mutable lru_map<std::string, entry> map_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

}  // namespace sdft
