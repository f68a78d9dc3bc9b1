#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"

namespace sdft {

class thread_pool;

/// Partials the MOCUS driver expands breadth-first from the root before
/// it drains them depth-first, one drain per frontier partial (see
/// mocus_options::dedup_limit). Fixed, so the counters never depend on
/// the pool.
inline constexpr std::size_t mocus_frontier_width = 64;

/// Options for the MOCUS minimal-cutset generator (paper §IV-B).
struct mocus_options {
  /// Partial cutsets whose basic-event probability product falls below this
  /// are discarded (the paper's cutoff constant c*, e.g. 1e-15). 0 disables.
  /// The product is always evaluated over the partial's *sorted* event set,
  /// so the cutoff decision for a partial depends only on which events it
  /// contains — never on the expansion path that reached it. This keeps the
  /// generated cutset list identical across thread counts. Must be finite
  /// and >= 0.
  /// With a positive cutoff (or a bounded max_order) MOCUS also drops a
  /// partial whose pending gates can no longer reach it — look-ahead
  /// pricing (DESIGN.md §9) — which changes the counters, not the list.
  double cutoff = 0.0;

  /// Maximum number of basic events per cutset; larger partials are
  /// discarded. Mirrors the order cutoff of industrial PSA tools.
  std::size_t max_order = std::numeric_limits<std::size_t>::max();

  /// Safety valve on the number of partial cutsets processed; exceeding it
  /// throws numeric_error rather than exhausting memory. Every walk of the
  /// driver counts into one relaxed shared counter, so it trips promptly
  /// regardless of thread count.
  std::size_t max_partials = 100'000'000;

  /// Size bound of a duplicate-partial cache. Deduplication is a pure
  /// optimisation (duplicates expand to identical cutsets), so a cache is
  /// cleared when it reaches this bound: memory stays bounded on huge
  /// models at the price of occasionally re-expanding a shared partial.
  /// The driver expands the root breadth-first into a fixed frontier of
  /// partials and drains each one depth-first; that phase and every drain
  /// own a cache with this bound, and at most pool->size() drains are live
  /// at once. A partial reached from two frontier partials is expanded by
  /// both drains. The frontier does not depend on the pool, so the
  /// counters are the same at every thread count and every limit.
  std::size_t dedup_limit = 4'000'000;

  /// Worker pool the frontier drains run on, through
  /// parallel_for(thread_pool*): nullptr, a pool with a single worker, or
  /// a call made from within a worker job of this very pool drains them
  /// inline, one after the other. The cutset list and the counters are
  /// bit-identical either way.
  thread_pool* pool = nullptr;

  /// Basic events assumed certainly failed (boolean TRUE). They satisfy
  /// gates but never appear in the produced cutsets. Used by the per-MCS
  /// model construction where static events of the cutset are conditioned
  /// on (paper §V-C step 2).
  std::vector<node_index> assume_failed;

  /// Basic events assumed certainly working (boolean FALSE); branches
  /// through them are pruned. Used to restrict the trigger-set computation
  /// to the relevant events Rel_a (paper §V-C step 2).
  std::vector<node_index> assume_working;
};

/// Result of a MOCUS run: the minimal cutsets plus bookkeeping counters.
struct mocus_result {
  /// Minimal cutsets over the free (non-assumed) basic events, sorted by
  /// (size, content). May contain the empty cutset when the root is failed
  /// by the assumptions alone.
  std::vector<cutset> cutsets;

  std::size_t partials_processed = 0;  ///< partial cutsets expanded
  /// Partials dropped by the cutoff, by max_order or by the look-ahead.
  std::size_t cutoff_discarded = 0;
  /// Of those, partials dropped by the look-ahead: their pending gates can
  /// no longer reach the cutoff or stay within max_order.
  std::size_t lookahead_pruned = 0;
  std::size_t subset_tests = 0;    ///< packed subsumption tests in minimize
  std::size_t universe_words = 0;  ///< 64-bit words per minimize subset mask
  double seconds = 0.0;            ///< wall-clock generation time
};

/// Runs MOCUS from the top gate of `ft`.
mocus_result mocus(const fault_tree& ft, const mocus_options& opt = {});

/// Runs MOCUS from an arbitrary root node of `ft` (a gate or basic event).
/// The per-MCS model construction uses this on trigger-gate subtrees.
mocus_result mocus_from(const fault_tree& ft, node_index root,
                        const mocus_options& opt = {});

}  // namespace sdft
