#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace sdft {

/// Instrumentation of one analysis_engine run: per-stage wall times,
/// backend counters and quantification-cache behaviour. Carried inside
/// analysis_result, printed by `sdft analyze --stats`, and published into
/// the obs::metrics_registry under the canonical names returned by
/// metrics() (the same keys `sdft analyze --metrics-json` and the BENCH_*
/// exports carry; see DESIGN.md §11).
struct engine_stats {
  /// Name of the cutset source used ("mocus", "bdd" or "mc").
  std::string backend;

  /// Monte-Carlo estimator of an mc-backend run ("crude", "forcing",
  /// "splitting"); empty on cutset backends. Published as a label.
  std::string mc_method;

  /// BDD variable ordering of the run ("dfs", "natural", "weight",
  /// "sift"); published as a label like `backend`.
  std::string bdd_ordering;

  // Per-stage wall times (seconds).
  double translate_seconds = 0;  ///< FT-bar construction + worst-case p(a)
  double prep_seconds = 0;       ///< rewrite pipeline + modularization
  double generate_seconds = 0;   ///< minimal-cutset generation
  double quantify_seconds = 0;   ///< parallel per-cutset quantification
  double sum_seconds = 0;        ///< rare-event sum + statistics
  double exact_static_seconds = 0;  ///< BDD exact-static stage (opt-in)
  double total_seconds = 0;

  // Preprocessing (src/prep) counters: what the rewrite pipeline did to
  // FT-bar before cutset generation, and how stage 2 was modularised.
  std::size_t prep_nodes_before = 0;
  std::size_t prep_nodes_after = 0;
  std::size_t prep_nodes_eliminated = 0;
  std::size_t prep_atleast_lowered = 0;
  std::size_t prep_constants_folded = 0;
  std::size_t prep_gates_coalesced = 0;
  std::size_t prep_duplicates_merged = 0;
  std::size_t prep_common_args_merged = 0;
  std::size_t prep_absorptions = 0;
  std::size_t prep_passes = 0;
  std::size_t prep_modules = 0;         ///< module roots (incl. the top)
  std::size_t prep_module_cutsets = 0;  ///< cutsets from nested modules

  // Cutset-source counters.
  std::size_t num_cutsets = 0;       ///< relevant MCSs handed to stage 3
  std::size_t source_partials = 0;   ///< MOCUS partial cutsets expanded
  std::size_t source_discarded = 0;  ///< cutoff-discarded partials / MCSs
  std::size_t bdd_nodes = 0;         ///< BDD nodes compiled (bdd backend)
  std::size_t subset_tests = 0;      ///< packed subsumption tests (MOCUS)
  std::size_t bitset_words = 0;      ///< widest packed key, 64-bit words
  std::size_t bdd_sift_swaps = 0;    ///< sifting swaps (bdd + sift only)

  // Quantifier counters.
  std::size_t static_cutsets = 0;    ///< quantified as probability products
  std::size_t dynamic_cutsets = 0;   ///< quantified via a product chain
  std::size_t failed_quantifications = 0;  ///< conservative fallbacks

  // Stage-3 fast-path counters (summed over dynamic cutsets; cache hits
  // contribute the counters recorded when their entry was solved).
  std::size_t lumped_orbits = 0;      ///< symmetry orbits actually lumped
  std::size_t lumped_cutsets = 0;     ///< cutsets whose chain was lumped
  std::size_t packed_key_chains = 0;  ///< chains explored via 64-bit keys
  std::size_t vector_key_chains = 0;  ///< chains on the vector-key fallback
  std::size_t uniformisation_steps_saved = 0;  ///< early-terminated steps

  // Quantification-cache counters (this run only).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;  ///< LRU evictions during the run
  std::size_t cache_entries = 0;    ///< entries held after the run

  // Structure-cache counters (this run only): did stages 1b–2 replay from
  // a cached structure instead of regenerating?
  std::size_t struct_cache_hits = 0;
  std::size_t struct_cache_misses = 0;
  std::size_t struct_cache_evictions = 0;
  std::size_t struct_cache_entries = 0;  ///< entries held after the run

  /// Worker threads of the quantification pool.
  std::size_t pool_threads = 0;

  // Parallel cutset-generation (stage 2) counters. The same pool serves
  // stages 2 and 3; these snapshot its activity during generation only.
  std::size_t mocus_threads = 0;  ///< workers available to stage 2
  std::size_t mocus_tasks = 0;    ///< jobs submitted during generation
  std::size_t mocus_steals = 0;   ///< jobs taken off another worker's deque
  double mocus_occupancy = 0;     ///< sum(executed) / (workers * max(executed))

  // Stage-3 (quantification) pool activity, snapshotted the same way.
  std::size_t quantify_tasks = 0;
  std::size_t quantify_steals = 0;
  double quantify_occupancy = 0;

  // Monte-Carlo backend counters (zero on cutset-backend runs): the
  // campaign shape and the estimate's statistical quality, mirrored from
  // analysis_result::mc so every consumer of the vocabulary (--stats,
  // --metrics-json, BENCH_mc rows, serve `stats`) sees them.
  double mc_seconds = 0;          ///< trajectory-campaign wall time
  std::size_t mc_trajectories = 0;  ///< trajectories consumed
  std::size_t mc_failures = 0;      ///< failure hits / final-level crossings
  std::size_t mc_levels = 0;        ///< splitting levels used (0 otherwise)
  std::size_t mc_replications = 0;  ///< splitting replications (0 otherwise)
  double mc_estimate = 0;           ///< point estimate
  double mc_std_error = 0;          ///< standard error of the estimate
  double mc_ci_half_width = 0;      ///< 95% CI half-width
  double mc_relative_error = 0;     ///< half-width / estimate (0 if empty)

  // Scenario-engine counters (engine/scenario: one-pass event-tree
  // quantification). Zero on plain top-event analyses; the scenario engine
  // additionally accumulates the per-gate cutset runs' counters above, so
  // one vocabulary covers both kinds of run.
  double scenario_compile_seconds = 0;   ///< CCF expansion + multi-root BDD
  double scenario_quantify_seconds = 0;  ///< one plan sweep over every root
  double scenario_cutset_seconds = 0;    ///< per-gate MCS + recombination
  double scenario_total_seconds = 0;
  std::size_t scenario_sequences = 0;
  std::size_t scenario_end_states = 0;
  std::size_t scenario_functional_events = 0;
  std::size_t scenario_bdd_nodes = 0;       ///< shared multi-root manager
  std::size_t scenario_plan_nodes = 0;      ///< reachable nodes one sweep visits
  std::size_t scenario_gates_compiled = 0;  ///< distinct gates compiled once
  std::size_t scenario_prefix_hits = 0;     ///< sequence prefix products reused
  std::size_t scenario_sequence_cutsets = 0;  ///< recombined MCSs, all sequences

  // Common-cause expansion counters (ft/ccf, run before prep).
  std::size_t ccf_groups = 0;
  std::size_t ccf_events_added = 0;       ///< explicit CCF basic events
  std::size_t ccf_members_expanded = 0;   ///< members replaced by OR gates

  // Parameter-uncertainty propagation counters (scenario engine UQ layer).
  double uq_seconds = 0;
  std::size_t uq_samples = 0;
  std::size_t uq_parameters = 0;  ///< distributions (re-drawn events)

  /// Field-wise accumulation for batched runs (the sweep aggregate):
  /// seconds and event counts sum, occupancies keep the maximum, entry
  /// gauges and labels keep the latest snapshot.
  void accumulate(const engine_stats& o) {
    backend = o.backend;
    bdd_ordering = o.bdd_ordering;
    translate_seconds += o.translate_seconds;
    prep_seconds += o.prep_seconds;
    generate_seconds += o.generate_seconds;
    quantify_seconds += o.quantify_seconds;
    sum_seconds += o.sum_seconds;
    exact_static_seconds += o.exact_static_seconds;
    total_seconds += o.total_seconds;
    prep_nodes_before += o.prep_nodes_before;
    prep_nodes_after += o.prep_nodes_after;
    prep_nodes_eliminated += o.prep_nodes_eliminated;
    prep_atleast_lowered += o.prep_atleast_lowered;
    prep_constants_folded += o.prep_constants_folded;
    prep_gates_coalesced += o.prep_gates_coalesced;
    prep_duplicates_merged += o.prep_duplicates_merged;
    prep_common_args_merged += o.prep_common_args_merged;
    prep_absorptions += o.prep_absorptions;
    prep_passes += o.prep_passes;
    prep_modules += o.prep_modules;
    prep_module_cutsets += o.prep_module_cutsets;
    num_cutsets += o.num_cutsets;
    source_partials += o.source_partials;
    source_discarded += o.source_discarded;
    bdd_nodes += o.bdd_nodes;
    subset_tests += o.subset_tests;
    bitset_words = std::max(bitset_words, o.bitset_words);
    bdd_sift_swaps += o.bdd_sift_swaps;
    static_cutsets += o.static_cutsets;
    dynamic_cutsets += o.dynamic_cutsets;
    failed_quantifications += o.failed_quantifications;
    lumped_orbits += o.lumped_orbits;
    lumped_cutsets += o.lumped_cutsets;
    packed_key_chains += o.packed_key_chains;
    vector_key_chains += o.vector_key_chains;
    uniformisation_steps_saved += o.uniformisation_steps_saved;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    cache_entries = o.cache_entries;
    struct_cache_hits += o.struct_cache_hits;
    struct_cache_misses += o.struct_cache_misses;
    struct_cache_evictions += o.struct_cache_evictions;
    struct_cache_entries = o.struct_cache_entries;
    pool_threads = std::max(pool_threads, o.pool_threads);
    mocus_threads = std::max(mocus_threads, o.mocus_threads);
    mocus_tasks += o.mocus_tasks;
    mocus_steals += o.mocus_steals;
    mocus_occupancy = std::max(mocus_occupancy, o.mocus_occupancy);
    quantify_tasks += o.quantify_tasks;
    quantify_steals += o.quantify_steals;
    quantify_occupancy = std::max(quantify_occupancy, o.quantify_occupancy);
    scenario_compile_seconds += o.scenario_compile_seconds;
    scenario_quantify_seconds += o.scenario_quantify_seconds;
    scenario_cutset_seconds += o.scenario_cutset_seconds;
    scenario_total_seconds += o.scenario_total_seconds;
    scenario_sequences += o.scenario_sequences;
    scenario_end_states += o.scenario_end_states;
    scenario_functional_events += o.scenario_functional_events;
    scenario_bdd_nodes += o.scenario_bdd_nodes;
    scenario_plan_nodes += o.scenario_plan_nodes;
    scenario_gates_compiled += o.scenario_gates_compiled;
    scenario_prefix_hits += o.scenario_prefix_hits;
    scenario_sequence_cutsets += o.scenario_sequence_cutsets;
    ccf_groups += o.ccf_groups;
    ccf_events_added += o.ccf_events_added;
    ccf_members_expanded += o.ccf_members_expanded;
    uq_seconds += o.uq_seconds;
    uq_samples += o.uq_samples;
    uq_parameters += o.uq_parameters;
    mc_method = o.mc_method;
    mc_seconds += o.mc_seconds;
    mc_trajectories += o.mc_trajectories;
    mc_failures += o.mc_failures;
    mc_levels = std::max(mc_levels, o.mc_levels);
    mc_replications = std::max(mc_replications, o.mc_replications);
    // Statistical gauges keep the latest snapshot, like the cache gauges:
    // summing estimates across points would be meaningless.
    mc_estimate = o.mc_estimate;
    mc_std_error = o.mc_std_error;
    mc_ci_half_width = o.mc_ci_half_width;
    mc_relative_error = o.mc_relative_error;
  }

  /// Hits / (hits + misses); 0 when no dynamic cutset was quantified.
  double cache_hit_rate() const {
    const std::size_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }

  /// Every numeric field under its canonical registry name. This list is
  /// the single source of truth for the metric vocabulary: publish() feeds
  /// it into the registry, `--metrics-json` dumps it, and the benches
  /// attach the same keys to their BENCH_* rows.
  std::vector<std::pair<std::string, double>> metrics() const {
    const auto n = [](std::size_t v) { return static_cast<double>(v); };
    return {
        {"engine.translate_seconds", translate_seconds},
        {"prep.seconds", prep_seconds},
        {"prep.nodes_before", n(prep_nodes_before)},
        {"prep.nodes_after", n(prep_nodes_after)},
        {"prep.nodes_eliminated", n(prep_nodes_eliminated)},
        {"prep.atleast_lowered", n(prep_atleast_lowered)},
        {"prep.constants_folded", n(prep_constants_folded)},
        {"prep.gates_coalesced", n(prep_gates_coalesced)},
        {"prep.duplicates_merged", n(prep_duplicates_merged)},
        {"prep.common_args_merged", n(prep_common_args_merged)},
        {"prep.absorptions", n(prep_absorptions)},
        {"prep.passes", n(prep_passes)},
        {"prep.modules", n(prep_modules)},
        {"prep.module_cutsets", n(prep_module_cutsets)},
        {"engine.generate_seconds", generate_seconds},
        {"engine.quantify_seconds", quantify_seconds},
        {"engine.sum_seconds", sum_seconds},
        {"engine.total_seconds", total_seconds},
        {"engine.cutsets", n(num_cutsets)},
        {"mocus.partials_expanded", n(source_partials)},
        {"mocus.cutoff_discarded", n(source_discarded)},
        {"mocus.subset_tests", n(subset_tests)},
        {"bitset.words", n(bitset_words)},
        {"bdd.nodes", n(bdd_nodes)},
        {"bdd.sift_swaps", n(bdd_sift_swaps)},
        {"engine.exact_static_seconds", exact_static_seconds},
        {"quant.static_cutsets", n(static_cutsets)},
        {"quant.dynamic_cutsets", n(dynamic_cutsets)},
        {"quant.failed", n(failed_quantifications)},
        {"quant.lumped_orbits", n(lumped_orbits)},
        {"quant.lumped_cutsets", n(lumped_cutsets)},
        {"quant.packed_key_chains", n(packed_key_chains)},
        {"quant.vector_key_chains", n(vector_key_chains)},
        {"transient.steps_saved", n(uniformisation_steps_saved)},
        {"quant.cache_hit", n(cache_hits)},
        {"quant.cache_miss", n(cache_misses)},
        {"quant.cache_evictions", n(cache_evictions)},
        {"quant.cache_entries", n(cache_entries)},
        {"quant.cache_hit_rate", cache_hit_rate()},
        {"struct_cache.hits", n(struct_cache_hits)},
        {"struct_cache.misses", n(struct_cache_misses)},
        {"struct_cache.evictions", n(struct_cache_evictions)},
        {"struct_cache.entries", n(struct_cache_entries)},
        {"pool.threads", n(pool_threads)},
        {"mocus.threads", n(mocus_threads)},
        {"mocus.tasks", n(mocus_tasks)},
        {"mocus.steals", n(mocus_steals)},
        {"mocus.occupancy", mocus_occupancy},
        {"quant.tasks", n(quantify_tasks)},
        {"quant.steals", n(quantify_steals)},
        {"pool.occupancy", quantify_occupancy},
        {"scenario.compile_seconds", scenario_compile_seconds},
        {"scenario.quantify_seconds", scenario_quantify_seconds},
        {"scenario.cutset_seconds", scenario_cutset_seconds},
        {"scenario.total_seconds", scenario_total_seconds},
        {"scenario.sequences", n(scenario_sequences)},
        {"scenario.end_states", n(scenario_end_states)},
        {"scenario.functional_events", n(scenario_functional_events)},
        {"scenario.bdd_nodes", n(scenario_bdd_nodes)},
        {"scenario.plan_nodes", n(scenario_plan_nodes)},
        {"scenario.gates_compiled", n(scenario_gates_compiled)},
        {"scenario.prefix_hits", n(scenario_prefix_hits)},
        {"scenario.sequence_cutsets", n(scenario_sequence_cutsets)},
        {"ccf.groups", n(ccf_groups)},
        {"ccf.events_added", n(ccf_events_added)},
        {"ccf.members_expanded", n(ccf_members_expanded)},
        {"uq.seconds", uq_seconds},
        {"uq.samples", n(uq_samples)},
        {"uq.parameters", n(uq_parameters)},
        {"mc.seconds", mc_seconds},
        {"mc.trajectories", n(mc_trajectories)},
        {"mc.failures", n(mc_failures)},
        {"mc.levels", n(mc_levels)},
        {"mc.replications", n(mc_replications)},
        {"mc.estimate", mc_estimate},
        {"mc.std_error", mc_std_error},
        {"mc.ci_half_width", mc_ci_half_width},
        {"mc.relative_error", mc_relative_error},
    };
  }

  /// Writes every metric (and the backend label) into `registry`. Seconds
  /// and rates become gauges, counts become counters, so a --metrics-json
  /// dump carries every engine_stats field.
  void publish(obs::metrics_registry& registry) const {
    for (const auto& [name, value] : metrics()) {
      const bool is_gauge = name.find("seconds") != std::string::npos ||
                            name.find("occupancy") != std::string::npos ||
                            name.find("rate") != std::string::npos ||
                            name.find("estimate") != std::string::npos ||
                            name.find("error") != std::string::npos ||
                            name.find("width") != std::string::npos;
      if (is_gauge) {
        registry.set_gauge(name, value);
      } else {
        registry.set_counter(name, static_cast<std::uint64_t>(value));
      }
    }
    registry.set_label("engine.backend", backend);
    registry.set_label("bdd.ordering", bdd_ordering);
    registry.set_label("mc.method", mc_method);
  }
};

}  // namespace sdft
