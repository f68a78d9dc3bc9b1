#pragma once

#include <cstddef>

#include "engine/cutset_source.hpp"
#include "prep/prep.hpp"
#include "sdft/translate.hpp"

namespace sdft {

class thread_pool;

/// Output of the module-orchestrated stage 2: the final relevant minimal
/// cutsets mapped back to original SD-tree indices (canonical order, same
/// contract stage 3 always had), plus per-module bookkeeping.
struct modular_generation {
  cutset_generation generation;

  std::size_t modules_analyzed = 0;  ///< module subproblems generated
  std::size_t module_cutsets = 0;    ///< cutsets contributed by nested modules
};

/// Runs the cutset source once per module of the prep-rewritten tree and
/// recombines the per-module lists into the exact non-modular result:
///
///  - Modules are processed nested-first (prep_result::module_roots is
///    topological). A nested module appears in its parent's subproblem as
///    a pseudo basic event whose probability is the maximum probability
///    of the module's kept cutsets — an upper bound on anything the
///    module can substitute, so the parent's cutoff pruning stays
///    conservative (a pruned partial could never have produced a kept
///    cutset).
///  - Modules have pairwise disjoint basic-event support, so substituting
///    the minimal cutsets of a module for its pseudo event (cartesian
///    product per quotient cutset) preserves minimality and introduces no
///    duplicates.
///  - A final exact cutoff filter over the top module's substituted list
///    removes the conservative keeps, leaving exactly the cutsets a
///    non-modular run produces; the canonical (size, content) order in SD
///    index space then makes the sequence — and the downstream sum —
///    bit-identical. The filter runs inside the top module's product
///    loop: for cutoffs >= min_priced_cutoff, products whose price (the
///    chosen factors times the later slots' bounds) cannot reach the
///    cutoff are counted as discarded and never built.
///
/// Independent modules of the same nesting depth fan out over `pool`
/// (each generating serially); modules too large for that run one at a
/// time with the pool handed to the source. Work assignment is purely
/// structural, so results do not depend on the thread count.
modular_generation generate_modular(const prep_result& prep,
                                    const static_translation& translation,
                                    const cutset_source& source,
                                    double cutoff, thread_pool* pool);

}  // namespace sdft
