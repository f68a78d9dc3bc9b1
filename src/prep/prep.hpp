#pragma once

#include <cstddef>
#include <vector>

#include "ft/fault_tree.hpp"

namespace sdft {

/// Options of the preprocessing rewrites. Normalisation (lowering of
/// atleast gates to shared AND/OR networks) is NOT optional — both
/// backends require an AND/OR tree — so it has no switch here.
struct prep_options {
  /// Run the simplifying rewrites and modularization; false runs
  /// normalisation only (`sdft analyze --no-prep`).
  bool enabled = true;
};

/// Counters describing what preprocess() did; mirrored into engine_stats
/// as the prep.* metrics family.
struct prep_stats {
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t atleast_lowered = 0;
  std::size_t constants_folded = 0;
  std::size_t gates_coalesced = 0;
  std::size_t duplicates_merged = 0;
  std::size_t common_args_merged = 0;
  std::size_t absorptions = 0;
  std::size_t passes = 0;
  std::size_t modules_found = 0;
  double seconds = 0.0;

  /// Net shrink; 0 when normalisation grew the tree (atleast lowering
  /// trades one voting gate for O(N*K) small gates).
  std::size_t nodes_eliminated() const {
    return nodes_after < nodes_before ? nodes_before - nodes_after : 0;
  }
};

/// A rewritten tree plus the bookkeeping the engine needs to map results
/// back to the source tree.
struct prep_result {
  /// The simplified AND/OR tree. Every basic event keeps its source name
  /// and probability; gates may be renamed, merged or synthesised.
  fault_tree tree;

  /// For each node of `tree`, the index of the source node it descends
  /// from, or fault_tree::npos for synthesised gates. Basic events always
  /// map; cutsets over `tree` translate to source indices through this.
  std::vector<node_index> to_source;

  /// Module roots of `tree` in topological order (nested modules before
  /// their enclosing module, the top gate last). Contains at least the
  /// top gate. With enabled=false it is exactly {top}.
  std::vector<node_index> module_roots;

  prep_stats stats;
};

/// Rewrites `src` into an equivalent simplified AND/OR fault tree.
///
/// All rewrites preserve the monotone structure function over the source
/// basic events, hence the exact minimal-cutset list and the top-event
/// probability — not just approximately, but as the same boolean
/// function; this is what makes prep-on/prep-off runs bit-comparable.
///
///  - normalisation: atleast(k of n) gates become a shared suffix
///    network (O(n*k) gates instead of the C(n,k) eager expansion),
///    duplicate gate arguments are dropped.
///  - folding: one-input gates and constant (empty) gates disappear.
///  - coalescing: an AND under an AND (or OR under OR) with no other
///    parent is inlined.
///  - duplicate merging: structurally identical gates are shared.
///  - common-argument merging: OR(AND(x,A), AND(x,B)) becomes
///    AND(x, OR(A,B)) (and dually), undistributing shared arguments.
///  - absorption: AND(x, OR(x, y), r) drops the OR child (and dually).
///
/// The source tree must validate() and may contain atleast gates; the
/// result never does.
prep_result preprocess(const fault_tree& src, const prep_options& opts = {});

}  // namespace sdft
