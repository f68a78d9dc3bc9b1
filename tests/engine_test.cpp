// Tests of the pluggable analysis-engine layer: backend-agnostic cutset
// sources (MOCUS vs BDD), the memoising quantification stage, and the
// engine_stats instrumentation. Includes the property tests asserting both
// backends produce identical cutsets and failure probabilities on the
// generated BWR and industrial models.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/importance.hpp"
#include "mcs/mocus.hpp"
#include "sdft/translate.hpp"
#include "test_models.hpp"

namespace sdft {
namespace {

std::vector<cutset> sorted_cutsets(std::vector<cutset> sets) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  return sets;
}

/// Asserts both cutset sources agree on the relevant minimal cutsets and
/// the engine reproduces the same failure probability through either.
void expect_backend_agreement(const sd_fault_tree& tree,
                              analysis_options opts) {
  const static_translation tr =
      translate_to_static(tree, opts.horizon, opts.epsilon,
                          opts.reference_cutoff);
  const cutset_generation via_mocus =
      mocus_source().generate(tr.ft_bar, opts.cutoff, nullptr);
  const cutset_generation via_bdd = bdd_source().generate(tr.ft_bar, opts.cutoff, nullptr);
  EXPECT_EQ(sorted_cutsets(via_mocus.cutsets),
            sorted_cutsets(via_bdd.cutsets));

  opts.backend = cutset_backend::mocus;
  const analysis_result mocus_result = analyze(tree, opts);
  opts.backend = cutset_backend::bdd;
  const analysis_result bdd_result = analyze(tree, opts);
  EXPECT_EQ(mocus_result.num_cutsets, bdd_result.num_cutsets);
  EXPECT_NEAR(mocus_result.failure_probability,
              bdd_result.failure_probability, 1e-12);
  EXPECT_EQ(mocus_result.stats.backend, "mocus");
  EXPECT_EQ(bdd_result.stats.backend, "bdd");
  EXPECT_GT(bdd_result.stats.bdd_nodes, 0u);
}

// --- Cutset sources ------------------------------------------------------

TEST(CutsetSource, BackendsAgreeOnRunningExample) {
  analysis_options opts;
  opts.horizon = 24.0;
  expect_backend_agreement(testing::example3_sd(), opts);
}

TEST(CutsetSource, BackendsAgreeUnderCutoff) {
  // The cutoff drops cutsets below 1e-5 on FT-bar in both sources with
  // identical semantics (product >= cutoff survives).
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-5;
  const sd_fault_tree tree = testing::example3_sd();
  const static_translation tr = translate_to_static(tree, opts.horizon);
  const cutset_generation via_mocus =
      mocus_source().generate(tr.ft_bar, opts.cutoff, nullptr);
  const cutset_generation via_bdd = bdd_source().generate(tr.ft_bar, opts.cutoff, nullptr);
  EXPECT_LT(via_mocus.cutsets.size(), 5u);
  EXPECT_EQ(sorted_cutsets(via_mocus.cutsets),
            sorted_cutsets(via_bdd.cutsets));
  EXPECT_GT(via_bdd.discarded, 0u);
  expect_backend_agreement(tree, opts);
}

TEST(CutsetSource, FactoryMatchesBackendNames) {
  EXPECT_STREQ(make_cutset_source(cutset_backend::mocus)->name(), "mocus");
  EXPECT_STREQ(make_cutset_source(cutset_backend::bdd)->name(), "bdd");
  EXPECT_STREQ(to_string(cutset_backend::bdd), "bdd");
}

// --- Backend equivalence on the paper-scale generators (property) --------

TEST(CutsetSource, BackendsAgreeOnBwrModels) {
  for (int triggers : {0, 2, 4}) {
    bwr_options bopts;
    bopts.dynamic_events = true;
    bopts.repair_rate = 0.02;
    const sd_fault_tree tree =
        make_bwr_model(with_bwr_triggers(bopts, triggers));
    analysis_options opts;
    opts.horizon = 24.0;
    opts.cutoff = 1e-15;
    expect_backend_agreement(tree, opts);
  }
}

TEST(CutsetSource, BackendsAgreeOnIndustrialModel) {
  industrial_options gopts;
  gopts.seed = 7;
  gopts.num_frontline_systems = 6;
  gopts.num_support_systems = 2;
  gopts.num_initiating_events = 4;
  gopts.sequences_per_ie = 3;
  gopts.components_per_train = 3;
  const industrial_model model = generate_industrial(gopts);
  mocus_options mopts;
  mopts.cutoff = 1e-15;
  const mocus_result mcs = mocus(model.ft, mopts);
  const auto ranked = rank_by_fussell_vesely(model.ft, mcs.cutsets);
  annotation_options aopts;
  aopts.dynamic_fraction = 0.3;
  aopts.trigger_fraction = 0.1;
  const sd_fault_tree tree = annotate_dynamic(model, ranked, aopts);

  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-15;
  opts.threads = 2;
  opts.keep_cutset_details = false;
  expect_backend_agreement(tree, opts);
}

// --- The memoising quantification stage ----------------------------------

/// Two cutsets {s1, d} and {s2, d} sharing the dynamic event d: their
/// FT_C (top AND over {d}) is structurally identical, only the factored
/// static probabilities differ, so one transient solve serves both.
struct shared_dynamic_fixture {
  sd_fault_tree tree;

  shared_dynamic_fixture() {
    const node_index s1 = tree.add_static_event("s1", 0.01);
    const node_index s2 = tree.add_static_event("s2", 0.02);
    const node_index d =
        tree.add_dynamic_event("d", make_repairable(1e-3, 5e-2));
    const node_index left =
        tree.add_gate("left", gate_type::and_gate, {s1, d});
    const node_index right =
        tree.add_gate("right", gate_type::and_gate, {s2, d});
    tree.set_top(tree.add_gate("top", gate_type::or_gate, {left, right}));
    tree.validate();
  }
};

TEST(QuantificationCache, SharedDynamicStructureHitsWithinOneRun) {
  const shared_dynamic_fixture fx;
  // Serial execution: on a pool the two cutsets can miss concurrently
  // (both solve before either inserts), which is correct but makes the
  // exact hit/miss split below scheduling-dependent.
  analysis_options serial;
  serial.inline_execution = true;
  analysis_engine engine{serial};
  const analysis_result result = engine.run(fx.tree);
  ASSERT_EQ(result.num_cutsets, 2u);
  EXPECT_EQ(result.stats.cache_misses, 1u);
  EXPECT_EQ(result.stats.cache_hits, 1u);
  EXPECT_EQ(engine.cache().size(), 1u);

  // The memoised path reproduces the uncached probabilities exactly.
  analysis_options uncached;
  uncached.cache_quantifications = false;
  const analysis_result reference = analyze(fx.tree, uncached);
  EXPECT_EQ(reference.stats.cache_hits + reference.stats.cache_misses, 0u);
  EXPECT_NEAR(result.failure_probability, reference.failure_probability,
              1e-15);

  // Per-cutset: p = p(s) * Pr[d fails within t], same chain term in both.
  ASSERT_EQ(result.cutsets.size(), 2u);
  const double chain0 = result.cutsets[0].probability /
                        (result.cutsets[0].events.front() == 0 ? 0.01 : 0.02);
  const double chain1 = result.cutsets[1].probability /
                        (result.cutsets[1].events.front() == 0 ? 0.01 : 0.02);
  EXPECT_NEAR(chain0, chain1, 1e-15);
  EXPECT_TRUE(result.cutsets[0].cache_hit || result.cutsets[1].cache_hit);
}

TEST(QuantificationCache, PersistsAcrossRunsOfOneEngine) {
  const sd_fault_tree tree = testing::example3_sd();
  analysis_engine engine{analysis_options{}};
  const analysis_result first = engine.run(tree);
  const analysis_result second = engine.run(tree);
  EXPECT_GT(first.stats.cache_misses, 0u);
  // Every dynamic solve of the second run is served from the cache.
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.cache_hits, first.stats.cache_misses);
  EXPECT_NEAR(first.failure_probability, second.failure_probability, 1e-15);
}

TEST(QuantificationCache, DisabledMeansNoLookups) {
  analysis_options opts;
  opts.cache_quantifications = false;
  analysis_engine engine(opts);
  const analysis_result result = engine.run(testing::example3_sd());
  EXPECT_EQ(result.stats.cache_hits + result.stats.cache_misses, 0u);
  EXPECT_EQ(engine.cache().size(), 0u);
  for (const auto& q : result.cutsets) EXPECT_FALSE(q.cache_hit);
}

TEST(QuantificationCache, SignatureSeparatesHorizons) {
  const sd_fault_tree tree = testing::example3_sd();
  cutset bd{tree.structure().find("b"), tree.structure().find("d")};
  std::sort(bd.begin(), bd.end());
  const mcs_model model = build_mcs_model(tree, bd);
  EXPECT_NE(mcs_model_signature(model, 24.0, 1e-10),
            mcs_model_signature(model, 48.0, 1e-10));
  EXPECT_NE(mcs_model_signature(model, 24.0, 1e-10),
            mcs_model_signature(model, 24.0, 1e-8));
  EXPECT_EQ(mcs_model_signature(model, 24.0, 1e-10),
            mcs_model_signature(model, 24.0, 1e-10));
}

TEST(QuantificationCache, FallbackDoesNotPoisonCache) {
  // Force the conservative fallback on every dynamic cutset by making the
  // product state limit impossible to meet: the bound must be returned
  // deterministically, and nothing may be stored in the cache — a later
  // engine with a real budget has to re-attempt the exact solve.
  const sd_fault_tree tree = testing::example3_sd();
  analysis_options strangled;
  strangled.max_product_states = 1;
  analysis_engine engine(strangled);

  const analysis_result first = engine.run(tree);
  EXPECT_GT(first.stats.failed_quantifications, 0u);
  EXPECT_EQ(engine.cache().size(), 0u);
  EXPECT_EQ(first.stats.cache_hits, 0u);
  EXPECT_GT(first.stats.cache_misses, 0u);

  // Re-running is deterministic and still never hits: the fallback path
  // is cache-bypassed, not cached-as-zero or cached-as-bound.
  const analysis_result second = engine.run(tree);
  EXPECT_EQ(second.failure_probability, first.failure_probability);
  EXPECT_EQ(second.stats.cache_hits, 0u);
  EXPECT_EQ(engine.cache().size(), 0u);

  // The bound is conservative: at least the exact probability.
  const double exact = analyze(tree, analysis_options{}).failure_probability;
  EXPECT_GE(first.failure_probability, exact);

  // A fresh engine with the default budget solves exactly again — no
  // poisoned entry can shadow the real solve (misses, then stores).
  analysis_engine healthy{analysis_options{}};
  const analysis_result third = healthy.run(tree);
  EXPECT_EQ(third.stats.failed_quantifications, 0u);
  EXPECT_GT(healthy.cache().size(), 0u);
  EXPECT_NEAR(third.failure_probability, exact, 1e-15);
}

TEST(QuantificationCache, ClearResetsCountersAndEntries) {
  quantification_cache cache;
  cache.store("k", {0.5, 3});
  ASSERT_TRUE(cache.find("k").has_value());
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_FALSE(cache.find("k").has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

// --- Engine stats and compatibility --------------------------------------

TEST(EngineStats, MirrorsLegacyFieldsAndCountsStages) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.threads = 2;
  const analysis_result result = analyze(testing::example3_sd(), opts);
  EXPECT_EQ(result.stats.backend, "mocus");
  EXPECT_EQ(result.stats.num_cutsets, result.num_cutsets);
  EXPECT_EQ(result.stats.static_cutsets + result.stats.dynamic_cutsets,
            result.num_cutsets);
  EXPECT_EQ(result.stats.dynamic_cutsets, result.num_dynamic_cutsets);
  EXPECT_EQ(result.stats.failed_quantifications, 0u);
  EXPECT_EQ(result.stats.pool_threads, 2u);
  EXPECT_DOUBLE_EQ(result.mcs_seconds, result.stats.generate_seconds);
  EXPECT_DOUBLE_EQ(result.quantify_seconds, result.stats.quantify_seconds);
  EXPECT_EQ(result.mocus_partials, result.stats.source_partials);
  EXPECT_GE(result.stats.total_seconds, 0.0);
}

TEST(EngineStats, HitRate) {
  engine_stats stats;
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.0);
  stats.cache_hits = 3;
  stats.cache_misses = 1;
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.75);
}

TEST(Engine, AnalyzeWrapperMatchesEngineRun) {
  const sd_fault_tree tree = testing::example3_sd();
  analysis_options opts;
  opts.horizon = 24.0;
  analysis_engine engine(opts);
  EXPECT_NEAR(engine.run(tree).failure_probability,
              analyze(tree, opts).failure_probability, 1e-15);
}

}  // namespace
}  // namespace sdft
