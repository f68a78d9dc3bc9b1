#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"

namespace sdft {

class thread_pool;

/// Options for the MOCUS minimal-cutset generator (paper §IV-B).
struct mocus_options {
  /// Partial cutsets whose basic-event probability product falls below this
  /// are discarded (the paper's cutoff constant c*, e.g. 1e-15). 0 disables.
  /// The product is always evaluated over the partial's *sorted* event set,
  /// so the cutoff decision for a partial depends only on which events it
  /// contains — never on the expansion path that reached it. This keeps the
  /// generated cutset list identical between the serial and the parallel
  /// driver (and across thread counts). Must be finite and >= 0.
  /// With a positive cutoff (or a bounded max_order) MOCUS also drops a
  /// partial whose pending gates can no longer reach it — look-ahead
  /// pricing (DESIGN.md §9) — which changes the counters, not the list.
  double cutoff = 0.0;

  /// Maximum number of basic events per cutset; larger partials are
  /// discarded. Mirrors the order cutoff of industrial PSA tools.
  std::size_t max_order = std::numeric_limits<std::size_t>::max();

  /// Safety valve on the number of partial cutsets processed; exceeding it
  /// throws numeric_error rather than exhausting memory. Enforced with a
  /// relaxed shared counter in the parallel driver, so it trips promptly
  /// regardless of thread count.
  std::size_t max_partials = 100'000'000;

  /// Size bound of the duplicate-partial cache. Deduplication is a pure
  /// optimisation (duplicates expand to identical cutsets), so the cache
  /// is cleared when it reaches this bound: memory stays bounded on huge
  /// models at the price of occasionally re-expanding a shared partial.
  /// The parallel driver shards the cache and bounds each shard at
  /// dedup_limit / #shards.
  std::size_t dedup_limit = 4'000'000;

  /// Worker pool for parallel partial-cutset expansion. nullptr (or a pool
  /// with a single worker, or a call made from within a worker job of this
  /// very pool) runs the serial driver. The produced cutset list is
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
  std::size_t threads_used = 1;        ///< workers of the driver that ran
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
