#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"

namespace sdft {

class thread_pool;

/// Selects the minimal-cutset generator of the analysis engine.
enum class cutset_backend {
  /// Top-down MOCUS expansion on FT-bar with the cutoff pruning partial
  /// cutsets (paper §V-B) — the default and the only cutset generator.
  /// (ft_bdd::minimal_cutsets() enumerates the complete list without a
  /// cutoff; it serves as the test oracle, not as a stage-2 source.)
  mocus,

  /// Monte-Carlo estimation (src/sim): no cutsets at all — the engine
  /// skips stages 1b–4 and estimates the top-event probability directly
  /// by batched trajectory simulation with forcing/splitting variance
  /// reduction (analysis_options::mc selects the estimator). The one
  /// backend that handles models outside the paper's tractability
  /// conditions (general repair, non-product cutsets), at the price of a
  /// confidence interval instead of a point value.
  mc,
};

/// Parses "mocus" / "mc"; returns false on anything else.
bool parse_cutset_backend(std::string_view text, cutset_backend& out);

const char* to_string(cutset_backend backend);

/// Output of a cutset source: relevant minimal cutsets over the analysed
/// tree's basic events, plus generator counters. The cutset list is
/// canonical — each cutset sorted, the list ordered by (size, content) —
/// so every thread count hands the caller the identical sequence. Index
/// spaces: a source speaks the index space of the tree it was given; the
/// engine's modular recombination layer (engine/modular) folds module
/// subproblems together and maps the final list back to original SD-tree
/// indices, which keeps stage 3's input (and the stage-4 sum order, and
/// hence the failure probability) bit-reproducible.
struct cutset_generation {
  std::vector<cutset> cutsets;

  std::size_t partials_processed = 0;  ///< MOCUS partials expanded
  std::size_t discarded = 0;           ///< cutoff-discarded partials
  std::size_t lookahead_pruned = 0;    ///< of which look-ahead prunes
  std::size_t subset_tests = 0;        ///< packed subsumption tests
  std::size_t bitset_words = 0;  ///< widest subset mask, in 64-bit words
};

/// Stage-2 interface of the engine: generates the relevant minimal
/// cutsets of an AND/OR fault tree (typically a prep-rewritten module of
/// FT-bar). Implementations must agree on cutoff semantics: a cutset
/// whose probability product over `ft` falls below `cutoff` is irrelevant
/// (paper eq. (1)); cutoff 0 disables truncation.
///
/// `pool` is the engine's worker pool; implementations fan their
/// parallelisable parts out over it. nullptr runs single-threaded. The
/// produced cutset list must be identical either way.
class cutset_source {
 public:
  virtual ~cutset_source() = default;

  virtual const char* name() const = 0;

  virtual cutset_generation generate(const fault_tree& ft, double cutoff,
                                     thread_pool* pool) const = 0;
};

/// Canonical list order: by (size, content). The generator funnels through
/// this, as does the modular recombination layer.
void sort_cutsets_canonically(std::vector<cutset>& sets);

/// MOCUS (paper §V-B), the seed pipeline's generator. With a pool, the
/// drains of its breadth-first frontier run on the pool's workers.
class mocus_source final : public cutset_source {
 public:
  const char* name() const override { return "mocus"; }
  cutset_generation generate(const fault_tree& ft, double cutoff,
                             thread_pool* pool) const override;
};

/// The stage-2 generator for `backend`; throws model_error for the mc
/// backend, which generates no cutsets.
std::unique_ptr<cutset_source> make_cutset_source(cutset_backend backend);

}  // namespace sdft
