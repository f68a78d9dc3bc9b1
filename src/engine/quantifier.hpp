#pragma once

#include <cstddef>
#include <string>

#include "core/mcs_model.hpp"
#include "engine/quant_cache.hpp"
#include "mcs/cutset.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "sdft/translate.hpp"

namespace sdft {

/// Outcome of quantifying one minimal cutset.
struct cutset_result {
  cutset events;           ///< original-tree basic-event indices
  double probability = 0;  ///< p-tilde(C)
  bool dynamic = false;    ///< quantified via a Markov chain (vs static product)
  bool cache_hit = false;  ///< transient solve reused from the cache
  std::size_t num_dynamic = 0;        ///< dynamic events in C
  std::size_t num_added_dynamic = 0;  ///< dynamic events added by triggering
  std::size_t chain_states = 0;       ///< product chain size (dynamic only)
  std::size_t lumped_orbits = 0;      ///< symmetry orbits lumped in the chain
  std::size_t steps_saved = 0;        ///< uniformisation steps early-skipped
  std::size_t trigger_sets_solved = 0;  ///< FT_C trigger gates MOCUS solved
  std::size_t trigger_set_hits = 0;     ///< FT_C trigger gates from the memo
  bool ftc_plan_hit = false;  ///< FT_C plan taken from the plan memo
  bool packed_keys = false;  ///< chain explored via the packed 64-bit key
  double seconds = 0;        ///< quantification wall time
  std::string error;  ///< non-empty if quantification fell back (see above)
};

/// Solver inputs of the quantification stage.
struct quantify_options {
  double horizon = 24.0;
  double epsilon = 1e-10;
  std::size_t max_product_states = 2'000'000;
  approx_mode mode = approx_mode::as_classified;
};

/// Stage-3 interface of the engine: quantifies one minimal cutset (given
/// in sorted original-tree indices). Implementations must be safe to call
/// concurrently from the quantification pool.
class quantifier {
 public:
  virtual ~quantifier() = default;

  virtual const char* name() const = 0;

  /// True iff this quantifier is applicable to `c`.
  virtual bool handles(const cutset& c) const = 0;

  virtual cutset_result quantify(cutset c) const = 0;
};

/// Purely static cutsets: p-tilde(C) is the product of the events'
/// probabilities (paper §V-C, the path that needs no Markov chain).
class static_product_quantifier final : public quantifier {
 public:
  explicit static_product_quantifier(const sd_fault_tree& tree)
      : tree_(tree) {}

  const char* name() const override { return "static-product"; }
  bool handles(const cutset& c) const override;
  cutset_result quantify(cutset c) const override;

 private:
  const sd_fault_tree& tree_;
};

/// Cutsets with dynamic events: plan FT_C (paper §V-C), solve the product
/// chain by uniformisation and multiply the static factor back in. The
/// explored chain and its transient solve are memoised in `cache`
/// (optional) under ftc_signature() of the plan, so cutsets sharing
/// dynamic sub-structure — e.g. thousands of MCSs combining the same
/// triggered chain with different static events — pay for one solve, a
/// new horizon pays only for uniformisation, and FT_C itself is
/// materialised only when no chain is cached. The plans are memoised in `plans` and the minimal
/// trigger sets they are built from in `trigger_sets` (both optional,
/// owned by the tree's structure-cache entry), so a warm cutset costs a
/// plan lookup, a signature and a cache lookup. Falls back to the
/// conservative FT-bar worst-case product when the chain is too large
/// (paper eq. (1)).
class product_chain_quantifier final : public quantifier {
 public:
  product_chain_quantifier(const sd_fault_tree& tree,
                           const static_translation& translation,
                           const quantify_options& options,
                           quantification_cache* cache,
                           const trigger_set_memo* trigger_sets = nullptr,
                           const ftc_plan_memo* plans = nullptr)
      : tree_(tree),
        translation_(translation),
        options_(options),
        cache_(cache),
        trigger_sets_(trigger_sets),
        plans_(plans) {}

  const char* name() const override { return "product-chain"; }
  bool handles(const cutset& c) const override;
  cutset_result quantify(cutset c) const override;

 private:
  const sd_fault_tree& tree_;
  const static_translation& translation_;
  const quantify_options options_;
  quantification_cache* cache_;  // nullptr disables memoisation
  const trigger_set_memo* trigger_sets_;  // nullptr: MOCUS per trigger gate
  const ftc_plan_memo* plans_;            // nullptr: one plan per call
};

}  // namespace sdft
