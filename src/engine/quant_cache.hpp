#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mcs_model.hpp"
#include "ctmc/uniformised.hpp"
#include "util/lru.hpp"
#include "util/spin_mutex.hpp"

namespace sdft {

/// Structural signature of the product chain FT_C induces, for the FT_C
/// `plan` materialise_ftc(plan, source) would build: the full FT_C
/// structure (gate types and wiring), the numeric content of every basic
/// event (static probability, or the complete CTMC / triggered-CTMC
/// definition, read from `source`) and the trigger edges. Everything that
/// determines the explored chain is encoded byte-exactly; names and the
/// static factor are deliberately excluded, so cutsets that share dynamic
/// sub-structure but differ in their static events map to the same key.
/// The solver inputs (horizon, epsilon) are not part of it either: one
/// chain serves every horizon. FT_C is never built.
std::string ftc_signature(const ftc_plan& plan, const sd_fault_tree& source);

/// The horizon-free part of a product-chain solve: the explored chain in
/// the flat form the transient solver runs on (uniformised_dtmc with the
/// failed rows absorbing, initial distribution, failed flags), plus the
/// exploration's fast-path counters.
struct explored_chain {
  uniformised_dtmc dtmc;
  std::vector<double> initial;
  std::vector<char> failed;
  std::size_t lumped_orbits = 0;  ///< symmetry orbits lumped
  bool packed_keys = false;       ///< explored via the packed 64-bit key

  std::size_t num_states() const { return dtmc.n; }
};

/// Thread-safe memoisation of product chains and their transient solves,
/// keyed by ftc_signature(). An entry holds one explored chain and up to
/// max_solves solves of it, each keyed by (horizon, epsilon) and storing
/// the *chain* failure probability (before the static factor is
/// multiplied back in). So structurally identical dynamic parts are
/// explored once per engine lifetime, and a new horizon reruns only
/// uniformisation.
///
/// Keys are compared as full strings and solves by their exact horizon
/// and epsilon — hash collisions cannot produce wrong probabilities. Only
/// successful solves are stored; fallbacks (e.g. product-size overflows)
/// are re-attempted.
///
/// The cache is bounded: chains past `capacity` are evicted least
/// recently used, and each chain keeps its newest max_solves solves, so a
/// resident process (sdft serve) holds its footprint steady. Eviction can
/// only cost a re-solve, never change a result — the cached chain is the
/// one a fresh run would explore, and hits replay the bit-identical solve
/// a fresh run would produce.
class quantification_cache {
 public:
  /// Default chain bound. The chains of the annotated industrial models
  /// (full-size model 1 at 30 % dynamic, bench-size model 1 all dynamic)
  /// average 7 states and 17 transitions: ~390 B of chain vectors and
  /// ~340 B of key, ~1.1 KB of heap per chain with the entry's
  /// bookkeeping and one solve (measured around clear()), plus 32 B per
  /// further solve. So this bound holds ~18–22 MB at those sizes; it
  /// counts chains, not bytes, and larger chains cost proportionally more.
  static constexpr std::size_t default_capacity = 1 << 14;

  /// Solves kept per chain, newest last; the oldest is dropped first.
  static constexpr std::size_t max_solves = 8;

  struct solve {
    double horizon = 0;
    double epsilon = 0;
    double chain_probability = 0;  ///< Pr[Reach<=t(Failed)] of the chain
    /// Early-skipped uniformisation steps of the original solve, replayed
    /// on every hit so engine_stats aggregates stay meaningful.
    std::size_t steps_saved = 0;
  };

  /// What the cache holds for one (key, horizon, epsilon): nothing, the
  /// chain only (a miss that skips exploration), or the chain and its
  /// solve (a hit).
  struct lookup {
    std::shared_ptr<const explored_chain> chain;
    std::optional<solve> solved;
  };

  explicit quantification_cache(std::size_t capacity = default_capacity);

  /// Looks the solve up, counting a hit or a miss, and a chain reuse on a
  /// miss whose chain is cached (either refreshes the chain's recency).
  lookup find(const std::string& key, double horizon, double epsilon) const;

  /// Records `s` as a solve of `chain` under `key`. A chain already cached
  /// under `key` is kept (first writer wins; concurrent misses explore the
  /// same chain), and a solve already listed is not duplicated. Evicts the
  /// least recently used chain past capacity.
  void store(const std::string& key,
             std::shared_ptr<const explored_chain> chain, const solve& s);

  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Misses answered by a cached chain (a subset of misses()).
  std::size_t chain_reuses() const {
    return chain_reuses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;  ///< chains held
  std::size_t solves() const;  ///< solves held, over all chains
  std::size_t capacity() const;
  std::size_t evictions() const;

  /// Changes the chain bound (0 = unbounded), evicting immediately.
  void set_capacity(std::size_t capacity);

  /// Drops all entries and resets the counters.
  void clear();

 private:
  struct entry {
    std::shared_ptr<const explored_chain> chain;
    std::vector<solve> solves;  ///< newest last, at most max_solves
  };

  /// Every quantifying thread of every run takes this lock once or twice
  /// per dynamic cutset, so it spins before it sleeps (see spin_mutex).
  /// No solve runs under it: find() hands the chain out by shared_ptr.
  mutable spin_mutex mutex_;
  mutable lru_map<std::string, entry> map_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> chain_reuses_{0};
};

}  // namespace sdft
