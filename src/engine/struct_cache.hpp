#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/mcs_model.hpp"
#include "mcs/cutset.hpp"
#include "prep/prep.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "util/lru.hpp"

namespace sdft {

/// Canonical structural signature of an SD fault tree: everything that
/// determines the FT-bar *structure* — node kinds, gate connectives and
/// wiring, the static/dynamic partition of the leaves and the trigger
/// edges — plus the prep configuration (which decides the rewritten tree
/// an entry's exact-static BDD is compiled over). All numeric parameters
/// (static probabilities, CTMC rates, horizon, epsilon, cutoff) are
/// deliberately excluded: they only move probabilities, and the structure
/// cache handles those through its stored probability envelope. Names are
/// excluded too — cached artifacts are pure index structures.
std::string structural_signature(const sd_fault_tree& tree,
                                 const prep_options& prep);

/// One cached structure-level analysis: stages 1b–2 of one engine run
/// (prep rewrite + modularized minimal-cutset generation), keyed by
/// structural_signature(). Parameters are captured as the *envelope*
/// under which the cutsets were generated, which makes reuse exact:
///
///   The engine keeps exactly {minimal cutsets c : p(c) >= cutoff}, with
///   p(c) the product of FT-bar probabilities (an invariant across
///   backends, thread counts and prep — see the determinism suite).
///   For a later run whose FT-bar probabilities are pointwise <= the
///   envelope and whose cutoff' >= gen_cutoff, every
///   cutset missing from the cached list satisfies p'(c) <= p_env(c) <
///   gen_cutoff <= cutoff', so re-filtering the cached list by the
///   run's own probabilities reproduces its fresh list exactly. A
///   gen_cutoff of 0 stores the complete minimal-cutset list, reusable
///   for any parameter point.
struct structure_entry {
  /// Minimized relevant cutsets in SD-tree index space, canonical
  /// (size, content) order — the exact stage-2 output of the generating
  /// run, before any per-run re-filtering.
  std::vector<cutset> cutsets;

  /// The same cutsets over prep-tree basic events, aligned with
  /// `cutsets`. Hit-path re-filtering multiplies probabilities in this
  /// order — the order the fresh run's final cutoff filter uses — so the
  /// keep/discard decisions are bit-for-bit the fresh ones.
  std::vector<cutset> prep_cutsets;

  /// FT-bar probability per SD node index at generation time (0 for
  /// gates). The dominance bound for reuse.
  std::vector<double> envelope;

  /// Cutoff the cutsets were generated under (0 = complete list).
  double gen_cutoff = 0;

  /// Prep counters of the generating run, replayed into engine_stats on
  /// hits (the rewrite is skipped, but its shape is still this).
  prep_stats pstats;

  /// The preprocessed FT-bar and its node -> FT-bar map, kept so an
  /// exact-static query on a hit compiles the same BDD a fresh run would.
  std::shared_ptr<const fault_tree> prep_tree;
  std::vector<node_index> prep_to_source;

  /// Minimal trigger sets solved while quantifying against this entry
  /// (paper §V-C step 2). They are structural, and the entry's key covers
  /// everything they depend on, so every run holding the entry — any
  /// horizon, override or sweep point — reuses them. Filled lazily by
  /// stage 3, dropped with the entry.
  trigger_set_memo trigger_sets;

  /// FT_C plans of this entry's dynamic cutsets, per approximation mode
  /// (paper §V-C). Structural for the same reason, so a warm run
  /// quantifies a planned cutset without re-planning it. Filled lazily by
  /// stage 3, dropped with the entry.
  ftc_plan_memo ftc_plans;

  /// Exact static top-event probability of `prep_tree`, evaluated with
  /// the probabilities of `ft_bar` (the run's own FT-bar, reached through
  /// `prep_to_source`), so a hit and a miss give the same bits. The first
  /// call compiles the prep tree in DFS order and freezes it to a
  /// bdd_plan held by the entry; every call is then one plan evaluation,
  /// concurrent callers included. Reports the node count of that compile.
  double exact_static_probability(const fault_tree& ft_bar,
                                  std::size_t* node_count) const;

 private:
  /// The frozen exact-static BDD: the plan, the FT-bar node behind each
  /// of its variables, and the nodes the compile allocated. Written once,
  /// under exact_once_; evaluation only reads it.
  struct exact_static_plan {
    bdd_plan plan;
    std::vector<node_index> var_to_source;
    std::size_t nodes = 0;
  };
  mutable std::once_flag exact_once_;
  mutable exact_static_plan exact_;
};

/// Thread-safe LRU cache of structure_entry, keyed by
/// structural_signature(). Entries are shared_ptr so eviction never
/// invalidates a run that is still quantifying against an entry.
///
/// Hit/miss accounting is the *engine's* notion (a probe that finds an
/// entry whose envelope does not dominate the run still counts as a
/// miss), so the counters are driven by record_hit()/record_miss() rather
/// than by probe().
class structure_cache {
 public:
  /// Default entry bound. Entries hold full cutset lists, so the cap is
  /// deliberately small; a resident service typically serves a handful
  /// of distinct structures.
  static constexpr std::size_t default_capacity = 64;

  explicit structure_cache(std::size_t capacity = default_capacity);

  /// The entry under `key` (refreshing recency), or nullptr.
  std::shared_ptr<const structure_entry> probe(const std::string& key);

  /// Inserts or replaces the entry under `key` (most recent), evicting
  /// past capacity. Replacement matters: a run whose parameters escape
  /// the stored envelope regenerates and re-stores under its own.
  void store(const std::string& key, std::shared_ptr<structure_entry> entry);

  void record_hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void record_miss() { misses_.fetch_add(1, std::memory_order_relaxed); }

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
  mutable std::mutex mutex_;
  lru_map<std::string, std::shared_ptr<structure_entry>> map_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

/// True iff `entry` can stand in for a run with per-SD-node FT-bar
/// probabilities `point` and relevance cutoff `cutoff` (see the
/// structure_entry contract). `point` must be indexed like the envelope.
bool envelope_dominates(const structure_entry& entry,
                        const std::vector<double>& point, double cutoff);

}  // namespace sdft
