#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/mcs_model.hpp"
#include "engine/cutset_source.hpp"
#include "engine/engine_stats.hpp"
#include "engine/quant_cache.hpp"
#include "engine/quantifier.hpp"
#include "engine/struct_cache.hpp"
#include "mcs/cutset.hpp"
#include "prep/prep.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "sim/mc.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

/// Options of the SD fault tree analysis pipeline (paper §V).
struct analysis_options {
  /// Mission time / analysis horizon t in hours (paper uses 24h..96h).
  double horizon = 24.0;

  /// Relevance cutoff c* applied both while generating minimal cutsets on
  /// FT-bar (conservative, paper eq. (1)) and when summing quantified
  /// cutsets. 0 disables truncation.
  double cutoff = 0.0;

  /// Numerical accuracy of the transient analyses.
  double epsilon = 1e-10;

  /// Workers of the engine pool (0 = hardware threads, 1 = none), read only
  /// at construction; cutset quantifications are independent (paper §VI).
  std::size_t threads = 0;

  /// Trigger modelling mode (exact per classification, or the paper's
  /// §VIII approximation variants).
  approx_mode mode = approx_mode::as_classified;

  /// Per-cutset product chain size cap; larger cutsets are reported as
  /// failed quantifications with their conservative FT-bar probability.
  std::size_t max_product_states = 2'000'000;

  /// Retain the per-cutset breakdown in the result (disable to save memory
  /// on very large runs).
  bool keep_cutset_details = true;

  /// Use the dynamic events' reference static probabilities (when set)
  /// instead of their worst-case probabilities while generating cutsets on
  /// FT-bar — the paper's "static cutoff" (§VI), which keeps the cutset
  /// list independent of the dynamic models.
  bool reference_cutoff = false;

  /// Stage-2 backend (see cutset_backend): MOCUS cutsets, or with
  /// cutset_backend::mc the engine skips the cutset pipeline entirely and
  /// estimates the top-event probability by Monte-Carlo simulation
  /// (options in `mc` below; result in analysis_result::mc).
  cutset_backend backend = cutset_backend::mocus;

  /// Monte-Carlo campaign options for the mc backend (estimator family,
  /// trajectory budget, seed, splitting/forcing knobs). `mc.levels == 0`
  /// derives the splitting levels from the prep workgraph's depth-to-top.
  /// Ignored by the cutset backends.
  sim::mc_options mc;

  /// Additionally evaluate the exact static top-event probability of the
  /// preprocessed FT-bar on one BDD (DFS variable order, compiled once per
  /// structure and frozen to a plan on its cache entry; Shannon
  /// decomposition, no rare-event approximation, no cutoff truncation).
  /// Reported in analysis_result::exact_static_probability; the dynamic
  /// pipeline is unaffected. Surfaced as `sdft analyze --exact-static`.
  bool exact_static = false;

  /// Preprocessing of FT-bar between translation and cutset generation
  /// (src/prep): simplifying rewrites plus modularization of stage 2.
  /// prep.enabled=false keeps only the mandatory normalisation (voting
  /// gates lowered to AND/OR) — every rewrite preserves the structure
  /// function, so results are bit-identical either way.
  prep_options prep;

  /// Entry bounds of the engine-owned caches, applied at engine
  /// construction (per-call option overrides ignore them; resize live
  /// engines through the cache accessors). 0 = unbounded. The engine
  /// always memoises: explored product chains and their transient solves
  /// in the quantification cache, whose bound counts chains (each keeps
  /// at most quantification_cache::max_solves solves), stages 1b–2 in the
  /// structure cache (see struct_cache.hpp).
  /// Both are exact, so a hit returns bit-identical results.
  std::size_t structure_cache_entries = structure_cache::default_capacity;
  std::size_t quant_cache_entries = quantification_cache::default_capacity;

  /// Run every stage on the calling thread (at construction: build no
  /// pool). For callers that already parallelise *across* analyses (the
  /// sweep runner, the serve request handlers) — per-analysis results are
  /// thread-count independent, so this changes nothing but scheduling.
  bool inline_execution = false;

  /// Publish the run's engine_stats into the global metrics registry at
  /// the end (disable for per-point sweep runs, whose caller publishes
  /// one aggregate instead of N stomping snapshots).
  bool publish_metrics = true;
};

/// Result of the full SD analysis.
struct analysis_result {
  /// Rare-event approximation over relevant cutsets (paper §V, p_rea).
  double failure_probability = 0;

  /// Exact static top-event probability of FT-bar, evaluated on a BDD
  /// (only when analysis_options::exact_static is set; 0 otherwise). An
  /// upper bound certificate for the truncated static rare-event sum.
  double exact_static_probability = 0;

  /// Monte-Carlo campaign result (mc backend only): the point estimate
  /// (mirrored into failure_probability), its 95% confidence interval,
  /// relative error and trajectory count. mc.trajectories == 0 on the
  /// cutset backends.
  sim::mc_result mc;

  std::size_t num_cutsets = 0;          ///< relevant MCSs found on FT-bar
  std::size_t num_dynamic_cutsets = 0;  ///< MCSs quantified dynamically

  /// Per-cutset details (empty if keep_cutset_details is false).
  std::vector<cutset_result> cutsets;

  /// Histogram over the number of dynamic events per *dynamic* cutset,
  /// counting both cutset events and events added by trigger modelling —
  /// the quantity behind the paper's Figure 2. Index = count.
  std::vector<std::size_t> dynamic_events_histogram;

  /// Mean dynamic events per dynamic cutset, and the mean number of those
  /// that were added by triggering (paper §VI-A reports 3.02 / 1.78).
  double mean_dynamic_events = 0;
  double mean_added_dynamic_events = 0;

  /// Per-stage instrumentation: stage times, backend counters, cache
  /// behaviour, pool occupancy.
  engine_stats stats;
};

/// The staged analysis pipeline of the paper (§V) behind analyze(), with
/// pluggable stage implementations: translate to FT-bar, generate relevant
/// minimal cutsets through the selected cutset_source, quantify every
/// cutset in parallel through the quantifier implementations (with the
/// memoising quantification cache), and sum the rare-event approximation.
///
/// The engine owns its quantification cache, which persists across run()
/// calls: repeated analyses of models sharing dynamic sub-structure (e.g.
/// a growing fleet of similar trains) reuse each other's explored chains
/// and transient solves. Chains are keyed without the horizon, so a run at
/// a new horizon reruns only uniformisation; solves are keyed by horizon
/// and accuracy, so runs with different options never alias. Its one worker pool is shared by every stage of concurrent calls.
class analysis_engine {
 public:
  explicit analysis_engine(analysis_options options = {});

  const analysis_options& options() const { return options_; }

  /// Runs the full pipeline with the engine's options. Thread-safe with
  /// respect to the caches; concurrent run() calls are allowed when every
  /// involved tree outlives its run.
  analysis_result run(const sd_fault_tree& tree);

  /// Runs the full pipeline with per-call options over the engine's
  /// shared caches — how the sweep runner and the serve layer give every
  /// point/request its own horizon and cutoff while still sharing every
  /// cached structure and transient solve. The `threads` and cache-capacity
  /// fields of `options` are ignored (set at construction).
  analysis_result run(const sd_fault_tree& tree,
                      const analysis_options& options);

  /// Runs stages 1–2 only (translate, prep, cutset generation) and parks
  /// the result in the structure cache, so subsequent run() calls on the
  /// same structure with dominated parameters are pure re-quantification.
  /// The sweep runner primes with the envelope tree before fanning out.
  void prime(const sd_fault_tree& tree);
  void prime(const sd_fault_tree& tree, const analysis_options& options);

  /// The memoisation cache (for inspection and explicit clear()).
  quantification_cache& cache() { return cache_; }
  const quantification_cache& cache() const { return cache_; }

  /// The structure cache (stages 1b–2 keyed by structural signature).
  structure_cache& structures() { return struct_cache_; }
  const structure_cache& structures() const { return struct_cache_; }

  /// The pool a call with options `opt` runs on: null under inline_execution
  /// (of `opt` or at construction) or when built with one thread.
  thread_pool* pool(const analysis_options& opt) const {
    return opt.inline_execution ? nullptr : pool_.get();
  }

 private:
  /// Stage 1–2 bundle shared by run() and prime().
  struct acquired_structure;

  acquired_structure acquire(const sd_fault_tree& tree,
                             const analysis_options& opt, thread_pool* pool,
                             engine_stats& stats);

  /// The mc-backend pipeline: translate/prep only as far as the
  /// importance levels and the optional exact-static stage need, then a
  /// batched Monte-Carlo campaign instead of stages 2–4.
  analysis_result run_mc(const sd_fault_tree& tree,
                         const analysis_options& opt);

  analysis_options options_;
  quantification_cache cache_;
  structure_cache struct_cache_;
  std::unique_ptr<thread_pool> pool_;
};

/// Compatibility wrapper over analysis_engine: runs the full pipeline of
/// the paper (§V) with a fresh engine (and thus a fresh cache).
analysis_result analyze(const sd_fault_tree& tree,
                        const analysis_options& options = {});

}  // namespace sdft
