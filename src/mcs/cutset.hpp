#pragma once

#include <cstddef>
#include <vector>

#include "ft/fault_tree.hpp"

namespace sdft {

/// A cutset: a sorted, duplicate-free set of basic-event indices whose joint
/// failure fails the top gate (paper §IV-A).
using cutset = std::vector<node_index>;

/// Product of the probabilities of the events in `c` (paper §IV-A, p(C)).
double cutset_probability(const fault_tree& ft, const cutset& c);

/// Relative slack of a filter that prices a set by another product than
/// cutset_probability() — the scenario engine's pair product
/// p(base) · p(add), MOCUS's look-ahead bound P(E) · b(g1) · b(g2) · … —
/// and rejects it below `cutoff · (1 − pricing_slack)`. Both products are
/// roundings of the same real product of at most a few thousand factors,
/// so they differ by far less than this: the filter never rejects a set
/// the canonical product keeps.
inline constexpr double pricing_slack = 1e-9;

/// Smallest cutoff such a filter applies at: above it, every product that
/// could reach the cutoff is a normal number, so the rounding bound behind
/// pricing_slack holds.
inline constexpr double min_priced_cutoff = 0x1p-1000;

/// Rare-event approximation: sum of cutset probabilities (paper §IV-A iii).
double rare_event_probability(const fault_tree& ft,
                              const std::vector<cutset>& cutsets);

/// Min-cut upper bound: 1 - prod(1 - p(C)). Tighter than the rare-event
/// approximation and still an upper bound for coherent trees with
/// independent events.
double min_cut_upper_bound(const fault_tree& ft,
                           const std::vector<cutset>& cutsets);

/// Counters of one minimize_cutsets() run, for engine_stats/--stats.
struct minimize_stats {
  std::size_t subset_tests = 0;    ///< packed word-loop subset tests run
  std::size_t universe_words = 0;  ///< 64-bit words per cutset bitset
};

/// Removes non-minimal sets: keeps exactly those sets with no proper subset
/// in the input. Also deduplicates. The result is sorted by (size, content).
/// Runs on the packed-bitset kernel (util/bitset.hpp): cutsets are mapped
/// onto a dense event universe and subsumption is decided by word-level
/// subset tests, sharded under the minimum member so only plausible
/// subsumers are touched. `stats`, when non-null, accumulates the kernel
/// counters.
std::vector<cutset> minimize_cutsets(std::vector<cutset> sets,
                                     minimize_stats* stats = nullptr);

/// True iff every member of `sets` is a cutset of `ft` (fails the top gate)
/// and no proper subset of it is. Exponential-free check used by tests.
bool are_minimal_cutsets(const fault_tree& ft, const std::vector<cutset>& sets);

/// Brute-force minimal cutsets by scenario enumeration; a test oracle for
/// trees with few basic events.
std::vector<cutset> minimal_cutsets_brute_force(const fault_tree& ft);

}  // namespace sdft
