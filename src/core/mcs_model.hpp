#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcs/cutset.hpp"
#include "sdft/classify.hpp"
#include "sdft/sd_fault_tree.hpp"

namespace sdft {

/// How trigger-gate subtrees are modelled when building per-cutset models.
enum class approx_mode {
  /// Paper §V-C: use the class each triggering gate actually satisfies
  /// (static branching / static joins / general).
  as_classified,

  /// Paper §VIII (future work), under-approximation: always use the
  /// static-branching rule Rel_a = Dyn_a ∩ C, disregarding the interplay of
  /// dynamic events outside the cutset. Cheaper, may miss failure runs.
  under_approximate,

  /// Paper §VIII (future work), over-approximation: let dynamic events
  /// interfere irrespective of static events — the general case's static
  /// guards are assumed failed, so triggers fire at least as early as in
  /// the exact semantics.
  over_approximate,
};

/// FT_C of one minimal cutset (paper §V-C) with every parameter left out:
/// the structure of the small SD tree, and for each of its events the
/// source basic event whose probability or chain it takes. Everything the
/// plan holds is read off the source tree's structure — wiring, the
/// static/dynamic split, trigger edges, trigger classes and the minimal
/// trigger sets — so one plan serves every parameter point (probabilities,
/// rates, horizon) of the structure it was built on. materialise_ftc()
/// turns it into the sd_fault_tree itself; ftc_signature()
/// (engine/quant_cache.hpp) keys a transient solve without doing so.
struct ftc_plan {
  enum class kind : std::uint8_t {
    and_gate,
    or_gate,
    static_event,
    dynamic_event
  };

  /// One FT_C node. FT_C has AND and OR gates only (no voting gates).
  struct node {
    kind what = kind::and_gate;
    /// Gate: offset of its first input in `inputs`. Event: the source
    /// basic event.
    node_index ref = 0;
    /// Gate: number of inputs. Dynamic event: its FT_C triggering gate,
    /// or fault_tree::npos for an untriggered event. Static event: 0.
    node_index aux = 0;
  };

  /// FT_C's nodes in FT_C index order: the cutset's dynamic events
  /// first, then the top, then the triggering logic.
  std::vector<node> nodes;
  /// Gate inputs, concatenated per gate.
  std::vector<node_index> inputs;
  /// The top AND over the cutset's dynamic events.
  node_index top = fault_tree::npos;
  /// Trigger classes used, one per modelled triggering gate.
  std::vector<trigger_class> used_classes;

  /// Modelled triggering gates: one trigger-set lookup each.
  std::size_t trigger_gates() const { return used_classes.size(); }

  /// Dynamic events of the cutset itself (source indices, cutset order).
  std::vector<node_index> cutset_dynamic() const;

  /// Dynamic events added by the triggering logic (source indices, FT_C
  /// order); the paper's "events added because triggering gates do not
  /// have static branching" statistic.
  std::vector<node_index> added_dynamic() const;

  /// Static events added by general-case triggering logic ("guards").
  std::vector<node_index> added_static() const;
};

/// The small SD fault tree FT_C quantifying one minimal cutset
/// (paper §V-C), with bookkeeping for the statistics the paper reports.
struct mcs_model {
  /// FT_C: top AND over the cutset's dynamic events, plus the triggering
  /// logic (OR-of-ANDs per modelled triggering gate) with trigger edges.
  sd_fault_tree tree;

  /// prod of p(a) over static events of the cutset (factored out of the
  /// Markov analysis, paper §V-C).
  double static_factor = 1.0;

  /// As in ftc_plan (the first three are its accessors).
  std::vector<node_index> cutset_dynamic;
  std::vector<node_index> added_dynamic;
  std::vector<node_index> added_static;
  std::vector<trigger_class> used_classes;

  /// Modelled triggering gates whose minimal trigger sets MOCUS solved,
  /// and those taken from a trigger_set_memo instead.
  std::size_t trigger_sets_solved = 0;
  std::size_t trigger_set_hits = 0;
};

/// Thread-safe memo of minimal trigger sets (paper §V-C step 2), keyed by
/// the exact MOCUS inputs: the triggering gate, the events assumed failed
/// and the events assumed working (encoded by build_mcs_model). MOCUS runs
/// there without a cutoff or an order bound, so the sets depend on the
/// tree's structure alone — wiring, the static/dynamic split and the
/// trigger edges — never on probabilities, rates or the horizon. One memo
/// may therefore serve every cutset, approximation mode and parameter
/// point of one structure; it must not be shared between structures (keys
/// are node indices). Concurrent misses on one key may both solve it; the
/// first insert wins and both results are identical. The duplicate solve
/// is one cutoff-free MOCUS of a trigger gate's subtree, ~20 µs on the
/// §VI-B study of full-size industrial model 1, and a cold run there sees
/// only 28 keys, so one lock suffices.
class trigger_set_memo {
 public:
  using sets = std::shared_ptr<const std::vector<cutset>>;

  /// The stored sets under `key`, or nullptr.
  sets find(const std::string& key) const;

  /// Stores `value` under `key` unless present; returns the stored sets.
  sets insert(std::string key, sets value) const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, sets> map_;
};

/// Thread-safe memo of ftc_plans, keyed by (approximation mode, cutset).
/// A plan depends on the structure alone (see ftc_plan), so one memo may
/// serve every parameter point of one structure; like trigger_set_memo it
/// must not be shared between structures. Entries are never erased and
/// map nodes never move, so the pointers handed out stay valid for the
/// memo's lifetime. Concurrent misses on one key may both build the plan;
/// the first insert wins and both plans are identical.
///
/// A cold run inserts one plan per dynamic cutset from every worker at
/// once, so the memo is split into `stripes` maps chosen by key hash, each
/// behind its own lock: inserts of different keys rarely meet. The stripes
/// (~8 KB) are allocated by the first insert, so a structure that never
/// plans, such as a static tree, does not pay for them.
class ftc_plan_memo {
 public:
  static constexpr std::size_t stripes = 64;

  ftc_plan_memo() = default;
  ~ftc_plan_memo();
  ftc_plan_memo(const ftc_plan_memo&) = delete;
  ftc_plan_memo& operator=(const ftc_plan_memo&) = delete;

  /// The stored plan for cutset `c` under `mode`, or nullptr.
  const ftc_plan* find(approx_mode mode, const cutset& c) const;

  /// Stores `plan` unless present; returns the stored plan.
  const ftc_plan* insert(approx_mode mode, const cutset& c,
                         ftc_plan plan) const;

  std::size_t size() const;

 private:
  /// One stripe, padded so neighbouring locks do not share a cache line.
  /// Warm runs only read: lookups share the lock, inserts take it alone.
  struct alignas(64) stripe {
    std::shared_mutex mutex;
    std::unordered_map<std::string, ftc_plan> map;
  };

  using stripe_array = std::array<stripe, stripes>;

  /// The stripe of `key` in `all`.
  static stripe& stripe_of(stripe_array& all, const std::string& key);

  /// Null until the first insert publishes the stripes; never replaced.
  mutable std::atomic<stripe_array*> stripes_{nullptr};
};

/// Plans FT_C for cutset `c` of `tree` following paper §V-C:
///  1. top gate = AND of the dynamic events of `c`;
///  2. for each triggered event, model its triggering gate over the
///     relevant events Rel_a of its class, as the OR of the minimal trigger
///     sets A_1..A_k (computed with the cutset's static events assumed
///     failed);
///  3. close recursively over newly added triggered events, reusing
///     already-modelled triggering gates and falling back to the general
///     case otherwise.
///
/// Requires `c` to contain at least one dynamic event (purely static
/// cutsets are quantified directly as their probability product).
/// `trigger_sets` (optional) memoises step 2's MOCUS runs; it must belong
/// to `tree`'s structure. The plan is the same with or without it.
/// `trigger_sets_solved` (optional out) receives the number of MOCUS runs;
/// the plan's other trigger gates came from the memo. A plan is a few
/// hundred bytes: the bookkeeping mcs_model carries is read off its nodes.
ftc_plan build_ftc_plan(const sd_fault_tree& tree, const cutset& c,
                        approx_mode mode = approx_mode::as_classified,
                        const trigger_set_memo* trigger_sets = nullptr,
                        std::size_t* trigger_sets_solved = nullptr);

/// FT_C itself: `plan` with the current static probabilities and chains
/// of `tree`, the tree it was planned on (or one of the same structure).
/// Gates are named after the source's triggering gates ("trig::G",
/// "trig::G::i" for the i-th trigger set), events after their sources.
/// The result is validated.
sd_fault_tree materialise_ftc(const ftc_plan& plan, const sd_fault_tree& tree);

/// prod of p(a) over the static events of `c`, in cutset order.
double ftc_static_factor(const sd_fault_tree& tree, const cutset& c);

/// Builds FT_C for cutset `c` of `tree`: build_ftc_plan() (same
/// arguments), then materialise_ftc() and ftc_static_factor().
mcs_model build_mcs_model(const sd_fault_tree& tree, const cutset& c,
                          approx_mode mode = approx_mode::as_classified,
                          const trigger_set_memo* trigger_sets = nullptr);

/// Pr[Reach<=t(Failed(C))] ~ failure probability of the FT_C product chain
/// times the static factor (paper §V-C). `chain_states` (optional out)
/// receives the product chain size.
double quantify_mcs_model(const mcs_model& model, double t,
                          double epsilon = 1e-10,
                          std::size_t max_product_states = 2'000'000,
                          std::size_t* chain_states = nullptr);

}  // namespace sdft
