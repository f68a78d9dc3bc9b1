#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "engine/modular.hpp"
#include "obs/obs.hpp"
#include "prep/prep.hpp"
#include "sdft/translate.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// FT-bar probability per SD node index (0 for gates): a run's parameter
/// point in the structure cache's envelope space. Basic events unreachable
/// from the top (never translated, so absent from to_bar) cannot appear in
/// any cutset; they stay 0 on both sides of the dominance check.
std::vector<double> ft_bar_point(const sd_fault_tree& tree,
                                 const static_translation& translation) {
  const fault_tree& ft = tree.structure();
  std::vector<double> point(ft.size(), 0.0);
  for (node_index n = 0; n < ft.size(); ++n) {
    if (!ft.is_basic(n)) continue;
    const auto it = translation.to_bar.find(n);
    if (it == translation.to_bar.end()) continue;
    point[n] = translation.ft_bar.node(it->second).probability;
  }
  return point;
}

void fill_prep_stats(engine_stats& stats, const prep_stats& p) {
  stats.prep_nodes_before = p.nodes_before;
  stats.prep_nodes_after = p.nodes_after;
  stats.prep_nodes_eliminated = p.nodes_eliminated();
  stats.prep_atleast_lowered = p.atleast_lowered;
  stats.prep_constants_folded = p.constants_folded;
  stats.prep_gates_coalesced = p.gates_coalesced;
  stats.prep_duplicates_merged = p.duplicates_merged;
  stats.prep_common_args_merged = p.common_args_merged;
  stats.prep_absorptions = p.absorptions;
  stats.prep_passes = p.passes;
  stats.prep_modules = p.modules_found;
}

/// The exact-static stage: the entry's frozen BDD of the preprocessed
/// FT-bar (compiled on first use) evaluated with this run's own FT-bar
/// probabilities — the exact static top-event probability, free of
/// rare-event and cutoff error, and the same on a cache hit as on a miss.
void exact_static_stage(const structure_entry& entry,
                        const static_translation& translation,
                        analysis_result& result) {
  const stopwatch timer;
  obs::span_scope span("engine.exact_static");
  result.exact_static_probability = entry.exact_static_probability(
      translation.ft_bar, &result.stats.bdd_nodes);
  result.stats.exact_static_seconds = timer.seconds();
  span.arg("nodes", static_cast<double>(result.stats.bdd_nodes));
  span.arg("probability", result.exact_static_probability);
}

/// Rejects numeric options no stage can honour; NaN fails every check.
void validate_options(const analysis_options& opt) {
  require_model(std::isfinite(opt.horizon) && opt.horizon >= 0.0,
                "analysis horizon must be finite and >= 0");
  require_model(std::isfinite(opt.cutoff) && opt.cutoff >= 0.0,
                "analysis cutoff must be finite and >= 0");
  require_model(opt.epsilon > 0.0 && opt.epsilon < 1.0,
                "analysis epsilon must lie in (0, 1)");
}

/// Stage 1: FT-bar with worst-case probabilities (paper §V-B). Always
/// fresh — it carries the run's parameter point.
static_translation translate_stage(const sd_fault_tree& tree,
                                   const analysis_options& opt,
                                   engine_stats& stats) {
  const stopwatch timer;
  obs::span_scope span("engine.translate");
  span.arg("events", static_cast<double>(tree.structure().size()));
  static_translation translation = translate_to_static(
      tree, opt.horizon, opt.epsilon, opt.reference_cutoff);
  stats.translate_seconds = timer.seconds();
  return translation;
}

/// Stage 1b: preprocessing — normalise, simplify and modularise FT-bar
/// before any cutset is generated (every rewrite preserves the structure
/// function, so the cutset list and probability are unchanged).
prep_result prep_stage(const fault_tree& ft_bar, const analysis_options& opt,
                       engine_stats& stats) {
  const stopwatch timer;
  obs::span_scope span("engine.prep");
  prep_result prep = preprocess(ft_bar, opt.prep);
  span.arg("nodes_before", static_cast<double>(prep.stats.nodes_before));
  span.arg("nodes_after", static_cast<double>(prep.stats.nodes_after));
  span.arg("modules", static_cast<double>(prep.stats.modules_found));
  stats.prep_seconds = timer.seconds();
  fill_prep_stats(stats, prep.stats);
  return prep;
}

}  // namespace

struct analysis_engine::acquired_structure {
  static_translation translation;

  /// Stage-2 output filtered for this run (SD space, canonical order).
  cutset_generation generation;

  /// The structure-level artifacts (prep tree, source maps, lazily
  /// compiled exact-static BDDs). From the cache on a hit, freshly built
  /// and stored otherwise.
  std::shared_ptr<const structure_entry> entry;
  bool from_cache = false;
};

analysis_engine::analysis_engine(analysis_options options)
    : options_(std::move(options)),
      cache_(options_.quant_cache_entries),
      struct_cache_(options_.structure_cache_entries),
      pool_(options_.inline_execution || options_.threads == 1
                ? nullptr
                : std::make_unique<thread_pool>(options_.threads)) {}

analysis_engine::acquired_structure analysis_engine::acquire(
    const sd_fault_tree& tree, const analysis_options& opt, thread_pool* pool,
    engine_stats& stats) {
  acquired_structure acq;
  stats.backend = to_string(opt.backend);

  acq.translation = translate_stage(tree, opt, stats);

  const std::string key = structural_signature(tree, opt.prep);
  std::vector<double> point = ft_bar_point(tree, acq.translation);
  std::shared_ptr<const structure_entry> cached = struct_cache_.probe(key);
  if (cached != nullptr && envelope_dominates(*cached, point, opt.cutoff)) {
    // Hit: stages 1b–2 replay from the cache. Re-filtering the stored
    // list by this run's own probabilities yields exactly the list a
    // fresh generation would (see struct_cache.hpp); prep counters are
    // replayed, generation counters stay honestly zero.
    struct_cache_.record_hit();
    stats.struct_cache_hits = 1;
    const stopwatch reuse_timer;
    obs::span_scope span("engine.reuse");
    fill_prep_stats(stats, cached->pstats);
    const fault_tree& bar = acq.translation.ft_bar;
    auto& kept = acq.generation.cutsets;
    kept.reserve(cached->cutsets.size());
    for (std::size_t i = 0; i < cached->cutsets.size(); ++i) {
      if (opt.cutoff > 0.0) {
        double p = 1.0;
        for (node_index e : cached->prep_cutsets[i]) {
          p *= bar.node(cached->prep_to_source[e]).probability;
        }
        if (p < opt.cutoff) {
          ++acq.generation.discarded;
          continue;
        }
      }
      kept.push_back(cached->cutsets[i]);
    }
    stats.generate_seconds = reuse_timer.seconds();
    stats.num_cutsets = kept.size();
    stats.source_discarded = acq.generation.discarded;
    span.arg("cached", static_cast<double>(cached->cutsets.size()));
    span.arg("cutsets", static_cast<double>(kept.size()));
    acq.entry = std::move(cached);
    acq.from_cache = true;
    return acq;
  }
  struct_cache_.record_miss();
  stats.struct_cache_misses = 1;

  prep_result prep = prep_stage(acq.translation.ft_bar, opt, stats);

  // Stage 2: relevant minimal cutsets through the selected source, one
  // subproblem per prep module, recombined to the exact full list.
  {
    const stopwatch generate_timer;
    obs::span_scope gen_span("engine.generate");
    obs::ambient_parent_scope ambient(gen_span.id());
    const mocus_source source;
    const pool_tally tally(pool);
    modular_generation modular =
        generate_modular(prep, acq.translation, source, opt.cutoff, pool);
    acq.generation = std::move(modular.generation);
    stats.prep_module_cutsets = modular.module_cutsets;
    stats.generate_seconds = generate_timer.seconds();
    stats.num_cutsets = acq.generation.cutsets.size();
    stats.source_partials = acq.generation.partials_processed;
    stats.source_discarded = acq.generation.discarded;
    stats.lookahead_pruned = acq.generation.lookahead_pruned;
    stats.subset_tests = acq.generation.subset_tests;
    stats.bitset_words = acq.generation.bitset_words;
    stats.mocus_threads = pool != nullptr ? pool->size() : 1;
    stats.mocus_pool_work = tally.executed();
    stats.mocus_occupancy = tally.occupancy();
    gen_span.arg("cutsets", static_cast<double>(stats.num_cutsets));
    gen_span.arg("partials", static_cast<double>(stats.source_partials));
    gen_span.arg("occupancy", stats.mocus_occupancy);
  }

  // Park the structure-level artifacts: the unfiltered canonical list in
  // both index spaces, the generation envelope, and the prep tree (for
  // exact-static BDD reuse). Stored even over an existing entry — a run
  // that escaped the old envelope re-anchors the key to its own.
  auto entry = std::make_shared<structure_entry>();
  entry->cutsets = acq.generation.cutsets;
  entry->gen_cutoff = opt.cutoff;
  entry->pstats = prep.stats;
  entry->prep_to_source = std::move(prep.to_source);
  entry->prep_tree =
      std::make_shared<const fault_tree>(std::move(prep.tree));
  entry->envelope = std::move(point);
  // Prep-space mirror of the cutsets, through the inverse of
  // to_source ∘ to_bar (every kept event survives prep, so the inverse is
  // total on them).
  std::unordered_map<node_index, node_index> bar_to_prep;
  const fault_tree& prep_tree = *entry->prep_tree;
  bar_to_prep.reserve(prep_tree.num_basic_events());
  for (node_index b = 0; b < prep_tree.size(); ++b) {
    if (prep_tree.is_basic(b)) bar_to_prep.emplace(entry->prep_to_source[b], b);
  }
  entry->prep_cutsets.reserve(entry->cutsets.size());
  for (const cutset& c : entry->cutsets) {
    cutset mapped;
    mapped.reserve(c.size());
    for (node_index e : c) {
      mapped.push_back(bar_to_prep.at(acq.translation.to_bar.at(e)));
    }
    std::sort(mapped.begin(), mapped.end());
    entry->prep_cutsets.push_back(std::move(mapped));
  }
  struct_cache_.store(key, entry);
  acq.entry = std::move(entry);
  return acq;
}

analysis_result analysis_engine::run(const sd_fault_tree& tree) {
  return run(tree, options_);
}

analysis_result analysis_engine::run_mc(const sd_fault_tree& tree,
                                        const analysis_options& opt) {
  const stopwatch total_timer;
  obs::span_scope run_span("engine.run");
  analysis_result result;
  engine_stats& stats = result.stats;
  stats.backend = to_string(cutset_backend::mc);

  thread_pool* const pool = this->pool(opt);
  sim::mc_options mc = opt.mc;

  // The splitting level count and the optional exact-static certificate
  // both live on the preprocessed FT-bar, so stages 1–1b run exactly when
  // one of them is needed; the trajectory campaign itself simulates the
  // original SD tree and needs neither.
  const bool derive_levels =
      mc.method == sim::mc_method::splitting && mc.levels == 0;
  if (derive_levels || opt.exact_static) {
    const static_translation translation = translate_stage(tree, opt, stats);
    prep_result prep = prep_stage(translation.ft_bar, opt, stats);

    if (derive_levels) {
      // Depth-to-top of the prep workgraph: the longest leaf-to-top path
      // in the rewritten FT-bar, i.e. how many structural layers the
      // importance function can climb through. Clamped so degenerate
      // shapes still split and deep DAGs do not starve per-stage effort.
      const fault_tree& pt = prep.tree;
      std::vector<std::size_t> depth(pt.size(), 0);
      std::size_t top_depth = 0;
      for (node_index n : pt.topo_order()) {
        const ft_node& node = pt.node(n);
        if (node.kind != node_kind::gate) continue;
        for (node_index child : node.inputs) {
          depth[n] = std::max(depth[n], depth[child] + 1);
        }
        if (n == pt.top()) top_depth = depth[n];
      }
      mc.levels = std::clamp<std::size_t>(top_depth, 2, 8);
    }

    if (opt.exact_static) {
      structure_entry entry;
      entry.prep_to_source = std::move(prep.to_source);
      entry.prep_tree =
          std::make_shared<const fault_tree>(std::move(prep.tree));
      exact_static_stage(entry, translation, result);
    }
  }

  // The campaign: batched trajectories on the engine pool, reproducible
  // at any thread count (counter-based substreams, fixed reduction order).
  stopwatch mc_timer;
  {
    obs::span_scope mc_span("engine.mc");
    result.mc =
        sim::estimate_failure_probability_mc(tree, opt.horizon, mc, pool);
    mc_span.arg("trajectories", static_cast<double>(result.mc.trajectories));
    mc_span.arg("estimate", result.mc.estimate);
    mc_span.arg("relative_error", result.mc.relative_error);
  }
  stats.mc_seconds = mc_timer.seconds();
  stats.mc_method = sim::to_string(result.mc.method);
  stats.mc_trajectories = result.mc.trajectories;
  stats.mc_failures = result.mc.failures;
  stats.mc_levels = result.mc.levels_used;
  stats.mc_replications = result.mc.replications;
  stats.mc_estimate = result.mc.estimate;
  stats.mc_std_error = result.mc.std_error;
  stats.mc_ci_half_width = result.mc.ci_half_width;
  stats.mc_relative_error = result.mc.relative_error;
  stats.pool_threads = pool != nullptr ? pool->size() : 1;

  result.failure_probability = result.mc.estimate;
  stats.total_seconds = total_timer.seconds();
  run_span.arg("mc_trajectories", static_cast<double>(stats.mc_trajectories));
  if (opt.publish_metrics) {
    stats.publish(obs::metrics_registry::global());
  }
  return result;
}

analysis_result analysis_engine::run(const sd_fault_tree& tree,
                                     const analysis_options& opt) {
  validate_options(opt);
  if (opt.backend == cutset_backend::mc) return run_mc(tree, opt);
  const stopwatch total_timer;
  obs::span_scope run_span("engine.run");
  analysis_result result;
  engine_stats& stats = result.stats;
  const std::size_t cache_hits_before = cache_.hits();
  const std::size_t cache_misses_before = cache_.misses();
  const std::size_t cache_chain_reuses_before = cache_.chain_reuses();
  const std::size_t cache_evictions_before = cache_.evictions();
  const std::size_t struct_evictions_before = struct_cache_.evictions();

  // The engine pool serves stage 2 (cutset generation) and stage 3
  // (quantification) — unless the caller already runs us on a pool of its
  // own (inline_execution), in which case every stage stays serial.
  thread_pool* const pool = this->pool(opt);

  // Stages 1–2 (translate, prep, generate), structure-cache aware.
  stopwatch stage_timer;
  acquired_structure acq = acquire(tree, opt, pool, stats);
  cutset_generation& generated = acq.generation;

  // Optional exact-static stage, on the entry's frozen BDD.
  if (opt.exact_static) exact_static_stage(*acq.entry, acq.translation, result);

  // Stage 3: per-cutset quantification, in parallel (paper §V-C).
  stage_timer.reset();
  {
    obs::span_scope quant_span("engine.quantify");
    obs::ambient_parent_scope ambient(quant_span.id());
    quantify_options qopts;
    qopts.horizon = opt.horizon;
    qopts.epsilon = opt.epsilon;
    qopts.max_product_states = opt.max_product_states;
    qopts.mode = opt.mode;
    const static_product_quantifier static_quantifier(tree);
    const product_chain_quantifier chain_quantifier(
        tree, acq.translation, qopts, &cache_, &acq.entry->trigger_sets,
        &acq.entry->ftc_plans);
    result.cutsets.resize(generated.cutsets.size());
    std::vector<cutset_result>& quantified = result.cutsets;
    stats.pool_threads = pool != nullptr ? pool->size() : 1;
    const pool_tally tally(pool);
    parallel_for(pool, generated.cutsets.size(), [&](std::size_t i) {
      cutset c = std::move(generated.cutsets[i]);
      const quantifier& q =
          static_quantifier.handles(c)
              ? static_cast<const quantifier&>(static_quantifier)
              : chain_quantifier;
      quantified[i] = q.quantify(std::move(c));
    });
    stats.quantify_seconds = stage_timer.seconds();
    stats.quantify_pool_work = tally.executed();
    stats.quantify_occupancy = tally.occupancy();
    quant_span.arg("occupancy", stats.quantify_occupancy);
  }

  // Stage 4: rare-event sum over relevant cutsets plus statistics.
  stage_timer.reset();
  {
    obs::span_scope sum_span("engine.sum");
    std::vector<cutset_result>& quantified = result.cutsets;
    std::size_t dynamic_events_total = 0;
    std::size_t added_dynamic_total = 0;
    for (auto& q : quantified) {
      if (opt.cutoff > 0.0 && q.probability <= opt.cutoff) continue;
      result.failure_probability += q.probability;
    }
    for (auto& q : quantified) {
      if (!q.error.empty()) ++stats.failed_quantifications;
      if (!q.dynamic) {
        ++stats.static_cutsets;
        continue;
      }
      ++stats.dynamic_cutsets;
      ++result.num_dynamic_cutsets;
      stats.lumped_orbits += q.lumped_orbits;
      if (q.lumped_orbits > 0) ++stats.lumped_cutsets;
      stats.uniformisation_steps_saved += q.steps_saved;
      stats.trigger_set_hits += q.trigger_set_hits;
      stats.trigger_set_misses += q.trigger_sets_solved;
      ++(q.ftc_plan_hit ? stats.ftc_plan_hits : stats.ftc_plan_misses);
      if (q.chain_states > 0 || q.cache_hit) {
        if (q.packed_keys) {
          ++stats.packed_key_chains;
        } else {
          ++stats.vector_key_chains;
        }
      }
      const std::size_t events = q.num_dynamic + q.num_added_dynamic;
      if (result.dynamic_events_histogram.size() <= events) {
        result.dynamic_events_histogram.resize(events + 1, 0);
      }
      ++result.dynamic_events_histogram[events];
      dynamic_events_total += events;
      added_dynamic_total += q.num_added_dynamic;
    }
    if (result.num_dynamic_cutsets > 0) {
      result.mean_dynamic_events =
          static_cast<double>(dynamic_events_total) /
          static_cast<double>(result.num_dynamic_cutsets);
      result.mean_added_dynamic_events =
          static_cast<double>(added_dynamic_total) /
          static_cast<double>(result.num_dynamic_cutsets);
    }
    if (!opt.keep_cutset_details) {
      result.cutsets.clear();
      result.cutsets.shrink_to_fit();
    }
    stats.sum_seconds = stage_timer.seconds();
    sum_span.arg("dynamic_cutsets", static_cast<double>(stats.dynamic_cutsets));
  }

  stats.cache_hits = cache_.hits() - cache_hits_before;
  stats.cache_misses = cache_.misses() - cache_misses_before;
  stats.cache_chain_reuses =
      cache_.chain_reuses() - cache_chain_reuses_before;
  stats.cache_evictions = cache_.evictions() - cache_evictions_before;
  stats.cache_entries = cache_.size();
  stats.struct_cache_evictions =
      struct_cache_.evictions() - struct_evictions_before;
  stats.struct_cache_entries = struct_cache_.size();
  stats.total_seconds = total_timer.seconds();
  run_span.arg("cutsets", static_cast<double>(stats.num_cutsets));
  run_span.arg("struct_cache_hit", static_cast<double>(stats.struct_cache_hits));

  // Publish the run's counters under their canonical registry names so a
  // --metrics-json dump (or any registry consumer) sees this run.
  if (opt.publish_metrics) {
    stats.publish(obs::metrics_registry::global());
  }

  result.num_cutsets = stats.num_cutsets;
  return result;
}

void analysis_engine::prime(const sd_fault_tree& tree) {
  prime(tree, options_);
}

void analysis_engine::prime(const sd_fault_tree& tree,
                            const analysis_options& options) {
  validate_options(options);
  // The mc backend generates no cutsets: nothing to park in the
  // structure cache, so priming is a no-op.
  if (options.backend == cutset_backend::mc) return;
  obs::span_scope span("engine.prime");
  engine_stats stats;
  const acquired_structure acq = acquire(tree, options, pool(options), stats);
  span.arg("cutsets", static_cast<double>(acq.generation.cutsets.size()));
  span.arg("cached", acq.from_cache ? 1.0 : 0.0);
}

analysis_result analyze(const sd_fault_tree& tree,
                        const analysis_options& options) {
  analysis_engine engine(options);
  return engine.run(tree);
}

}  // namespace sdft
