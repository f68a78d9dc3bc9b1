#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
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

/// The small SD fault tree FT_C quantifying one minimal cutset
/// (paper §V-C), with bookkeeping for the statistics the paper reports.
struct mcs_model {
  /// FT_C: top AND over the cutset's dynamic events, plus the triggering
  /// logic (OR-of-ANDs per modelled triggering gate) with trigger edges.
  sd_fault_tree tree;

  /// prod of p(a) over static events of the cutset (factored out of the
  /// Markov analysis, paper §V-C).
  double static_factor = 1.0;

  /// Dynamic events of the cutset itself (original-tree indices).
  std::vector<node_index> cutset_dynamic;

  /// Dynamic events added by the triggering logic (original-tree indices);
  /// the paper's "events added because triggering gates do not have static
  /// branching" statistic.
  std::vector<node_index> added_dynamic;

  /// Static events added by general-case triggering logic ("guards").
  std::vector<node_index> added_static;

  /// Trigger classes actually used, one per modelled triggering gate.
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
/// first insert wins and both results are identical.
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

/// Builds FT_C for cutset `c` of `tree` following paper §V-C:
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
/// to `tree`'s structure. The model is the same with or without it.
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
