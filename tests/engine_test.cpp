// Tests of the analysis-engine layer: the MOCUS cutset source against the
// BDD oracle (ft_bdd::minimal_cutsets() under the same cutoff), the
// memoising quantification stage, and the engine_stats instrumentation.
// The oracle properties run on the running example and on the generated
// BWR and industrial models.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ctmc/transient.hpp"
#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "sdft/parser.hpp"
#include "sdft/translate.hpp"
#include "test_models.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

/// Asserts the MOCUS source on FT-bar and the engine's final list (in SD
/// indices, canonical order) both equal the BDD oracle under the cutoff.
void expect_matches_bdd_oracle(const sd_fault_tree& tree,
                               analysis_options opts) {
  const static_translation tr =
      translate_to_static(tree, opts.horizon, opts.epsilon,
                          opts.reference_cutoff);
  const cutset_generation via_mocus =
      mocus_source().generate(tr.ft_bar, opts.cutoff, nullptr);
  EXPECT_EQ(via_mocus.cutsets,
            testing::bdd_oracle_cutsets(tr.ft_bar, opts.cutoff));

  opts.backend = cutset_backend::mocus;
  opts.keep_cutset_details = true;
  const analysis_result result = analyze(tree, opts);
  EXPECT_EQ(result.stats.backend, "mocus");
  EXPECT_EQ(testing::engine_cutsets(result),
            testing::bdd_oracle_cutsets(tree, opts));
  EXPECT_EQ(result.num_cutsets, result.cutsets.size());
}

// --- Cutset source --------------------------------------------------------

TEST(CutsetSource, MatchesBddOracleOnRunningExample) {
  analysis_options opts;
  opts.horizon = 24.0;
  expect_matches_bdd_oracle(testing::example3_sd(), opts);
}

TEST(CutsetSource, MatchesBddOracleUnderCutoff) {
  // The cutoff drops cutsets below 1e-5 on FT-bar: MOCUS prunes partials
  // by the same predicate (product >= cutoff survives) that filters the
  // oracle's complete list.
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-5;
  const sd_fault_tree tree = testing::example3_sd();
  const static_translation tr = translate_to_static(tree, opts.horizon);
  const cutset_generation via_mocus =
      mocus_source().generate(tr.ft_bar, opts.cutoff, nullptr);
  EXPECT_LT(via_mocus.cutsets.size(), 5u);
  EXPECT_LT(via_mocus.cutsets.size(),
            testing::bdd_oracle_cutsets(tr.ft_bar, 0.0).size());
  EXPECT_GT(via_mocus.discarded, 0u);
  expect_matches_bdd_oracle(tree, opts);
}

TEST(CutsetSource, FactoryAndBackendNames) {
  EXPECT_STREQ(make_cutset_source(cutset_backend::mocus)->name(), "mocus");
  EXPECT_THROW(make_cutset_source(cutset_backend::mc), model_error);
  for (const cutset_backend backend :
       {cutset_backend::mocus, cutset_backend::mc}) {
    cutset_backend parsed = cutset_backend::mc;
    ASSERT_TRUE(parse_cutset_backend(to_string(backend), parsed));
    EXPECT_EQ(parsed, backend);
  }
  // MOCUS is the only cutset generator: "bdd" is as unknown as "qmc".
  cutset_backend parsed = cutset_backend::mocus;
  EXPECT_FALSE(parse_cutset_backend("bdd", parsed));
  EXPECT_FALSE(parse_cutset_backend("qmc", parsed));
}

// --- The oracle on the paper-scale generators (property) -----------------

TEST(CutsetSource, MatchesBddOracleOnBwrModels) {
  for (int triggers : {0, 2, 4}) {
    bwr_options bopts;
    bopts.dynamic_events = true;
    bopts.repair_rate = 0.02;
    const sd_fault_tree tree =
        make_bwr_model(with_bwr_triggers(bopts, triggers));
    analysis_options opts;
    opts.horizon = 24.0;
    opts.cutoff = 1e-15;
    expect_matches_bdd_oracle(tree, opts);
  }
}

TEST(CutsetSource, MatchesBddOracleOnIndustrialModel) {
  annotation_options aopts;
  aopts.dynamic_fraction = 0.3;
  aopts.trigger_fraction = 0.1;
  const sd_fault_tree tree = testing::annotated_study(
      testing::small_industrial_model(7), 1e-15, aopts);

  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-15;
  opts.threads = 2;
  expect_matches_bdd_oracle(tree, opts);
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

  // The memoised path reproduces the uncached quantifier exactly.
  const static_translation translation =
      translate_to_static(fx.tree, serial.horizon, serial.epsilon);
  const product_chain_quantifier uncached(fx.tree, translation,
                                          quantify_options{}, nullptr);
  for (const cutset_result& c : result.cutsets) {
    EXPECT_EQ(c.probability, uncached.quantify(c.events).probability);
  }

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

/// A two-state repairable chain in the flat form the cache stores.
std::shared_ptr<const explored_chain> repairable_chain() {
  ctmc chain = make_repairable(1e-3, 5e-2);
  chain.set_failed(1);
  return std::make_shared<const explored_chain>(explored_chain{
      uniformised_dtmc(chain, chain.failed_flags()),
      chain.initial_distribution(), chain.failed_flags()});
}

double solve_chain(const explored_chain& chain, double horizon,
                   double epsilon) {
  return reach_probability(chain.dtmc, chain.initial, chain.failed, horizon,
                           epsilon);
}

TEST(QuantificationCache, SolvesOfOneChainAreKeyedByHorizonAndEpsilon) {
  // One chain, three solver inputs: each is its own solve, and none
  // answers a lookup of another.
  const auto chain = repairable_chain();
  const std::vector<std::pair<double, double>> inputs = {
      {24.0, 1e-10}, {48.0, 1e-10}, {24.0, 1e-8}};
  quantification_cache cache;
  for (const auto& [h, eps] : inputs) {
    EXPECT_FALSE(cache.find("k", h, eps).solved.has_value());
    cache.store("k", chain, {h, eps, solve_chain(*chain, h, eps), 0});
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.solves(), 3u);
  for (const auto& [h, eps] : inputs) {
    const quantification_cache::lookup found = cache.find("k", h, eps);
    ASSERT_TRUE(found.solved.has_value());
    EXPECT_EQ(found.solved->horizon, h);
    EXPECT_EQ(found.solved->epsilon, eps);
    EXPECT_EQ(found.solved->chain_probability, solve_chain(*chain, h, eps));
    EXPECT_EQ(found.chain, chain);
  }
  EXPECT_NE(solve_chain(*chain, 24.0, 1e-10), solve_chain(*chain, 48.0, 1e-10));

  // A fourth horizon misses, but the chain is there to solve it.
  const quantification_cache::lookup other = cache.find("k", 12.0, 1e-10);
  EXPECT_FALSE(other.solved.has_value());
  EXPECT_EQ(other.chain, chain);
  // Misses: the three first lookups and 12 h; all but the very first
  // found the chain.
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.chain_reuses(), 3u);

  // Re-storing a listed solve does not duplicate it.
  cache.store("k", chain, {48.0, 1e-10, 0.5, 0});
  EXPECT_EQ(cache.solves(), 3u);
  EXPECT_EQ(cache.find("k", 48.0, 1e-10).solved->chain_probability,
            solve_chain(*chain, 48.0, 1e-10));
}

TEST(QuantificationCache, SolveListKeepsTheNewest) {
  const auto chain = repairable_chain();
  quantification_cache cache;
  const std::size_t n = quantification_cache::max_solves + 2;
  for (std::size_t i = 0; i < n; ++i) {
    cache.store("k", chain, {1.0 + static_cast<double>(i), 1e-10, 0.1, i});
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.solves(), quantification_cache::max_solves);
  for (std::size_t i = 0; i < n; ++i) {
    const bool kept = i >= n - quantification_cache::max_solves;
    EXPECT_EQ(cache.find("k", 1.0 + static_cast<double>(i), 1e-10)
                  .solved.has_value(),
              kept)
        << "solve " << i;
  }
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
  const auto chain = repairable_chain();
  quantification_cache cache;
  cache.store("k", chain, {24.0, 1e-10, 0.5, 3});
  ASSERT_TRUE(cache.find("k", 24.0, 1e-10).solved.has_value());
  EXPECT_EQ(cache.find("k", 48.0, 1e-10).chain, chain);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.chain_reuses(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.solves(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.chain_reuses(), 0u);
  const quantification_cache::lookup gone = cache.find("k", 24.0, 1e-10);
  EXPECT_EQ(gone.chain, nullptr);
  EXPECT_FALSE(gone.solved.has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.chain_reuses(), 0u);
}

sd_fault_tree triggered_bwr() {
  bwr_options bopts;
  bopts.dynamic_events = true;
  bopts.repair_rate = 0.1;
  return make_bwr_model(with_bwr_triggers(bopts, 2));
}

std::vector<double> cutset_probabilities(const analysis_result& r) {
  std::vector<double> out;
  for (const cutset_result& q : r.cutsets) out.push_back(q.probability);
  return out;
}

/// A fresh engine's run of `tree` at `horizon`: the reference every
/// cache-served run must reproduce bit for bit.
analysis_result fresh_run(const sd_fault_tree& tree, double horizon) {
  analysis_options opts;
  opts.horizon = horizon;
  return analysis_engine(opts).run(tree);
}

TEST(QuantificationCache, NewHorizonReusesExploredChain) {
  for (const sd_fault_tree& tree : {testing::example3_sd(), triggered_bwr()}) {
    analysis_options at24;
    at24.horizon = 24.0;
    analysis_options at31 = at24;
    at31.horizon = 31.7;
    analysis_engine engine(at24);
    const analysis_result first = engine.run(tree);
    ASSERT_GT(first.stats.cache_misses, 0u);
    EXPECT_EQ(first.stats.cache_chain_reuses, 0u);
    const std::size_t chains = engine.cache().size();

    // Every miss at the new horizon is answered by a cached chain: no
    // product chain is explored, and the results are a fresh run's bits.
    const analysis_result second = engine.run(tree, at31);
    EXPECT_GT(second.stats.cache_misses, 0u);
    EXPECT_EQ(second.stats.cache_chain_reuses, second.stats.cache_misses);
    EXPECT_EQ(engine.cache().size(), chains);
    const analysis_result reference = fresh_run(tree, 31.7);
    EXPECT_EQ(second.failure_probability, reference.failure_probability);
    EXPECT_EQ(cutset_probabilities(second), cutset_probabilities(reference));
    EXPECT_EQ(second.stats.uniformisation_steps_saved,
              reference.stats.uniformisation_steps_saved);
    EXPECT_EQ(second.stats.lumped_orbits, reference.stats.lumped_orbits);
    EXPECT_EQ(second.stats.packed_key_chains,
              reference.stats.packed_key_chains);

    // Back at 24 h every solve is still listed.
    const analysis_result back = engine.run(tree, at24);
    EXPECT_EQ(back.stats.cache_misses, 0u);
    EXPECT_EQ(back.failure_probability, first.failure_probability);
    EXPECT_EQ(cutset_probabilities(back), cutset_probabilities(first));
  }
}

TEST(QuantificationCache, OldestHorizonPastTheSolveCapResolvesExactly) {
  // More horizons than a chain keeps solves: the first horizon's solves
  // are dropped, and asking again re-solves from the cached chain.
  const sd_fault_tree tree = testing::example3_sd();
  analysis_options opts;
  analysis_engine engine(opts);
  std::vector<double> horizons;
  for (std::size_t i = 0; i <= quantification_cache::max_solves; ++i) {
    horizons.push_back(12.0 + 3.5 * static_cast<double>(i));
  }
  for (double h : horizons) {
    opts.horizon = h;
    (void)engine.run(tree, opts);
  }
  const std::size_t chains = engine.cache().size();
  opts.horizon = horizons.front();
  const analysis_result again = engine.run(tree, opts);
  EXPECT_EQ(again.stats.cache_hits, 0u);
  EXPECT_GT(again.stats.cache_misses, 0u);
  EXPECT_EQ(again.stats.cache_chain_reuses, again.stats.cache_misses);
  EXPECT_EQ(engine.cache().size(), chains);
  const analysis_result reference = fresh_run(tree, horizons.front());
  EXPECT_EQ(again.failure_probability, reference.failure_probability);
  EXPECT_EQ(cutset_probabilities(again), cutset_probabilities(reference));
}

TEST(QuantificationCache, ConcurrentHorizonsShareChains) {
  // TSan target: threads on one primed engine each run their own
  // horizons, racing to add solves to the same chains (and, on first
  // touch, to explore them). Every result must equal a fresh engine's.
  const sd_fault_tree tree = triggered_bwr();
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-12;
  opts.inline_execution = true;
  analysis_engine engine(opts);
  engine.prime(tree);

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  const auto horizon_of = [](int t, int round) {
    return 12.0 + 1.5 * static_cast<double>((t * kRounds + round) % 12);
  };
  std::vector<double> results(kThreads * kRounds, -1.0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      analysis_options mine = opts;
      for (int round = 0; round < kRounds; ++round) {
        mine.horizon = horizon_of(t, round);
        results[static_cast<std::size_t>(t * kRounds + round)] =
            engine.run(tree, mine).failure_probability;
      }
    });
  }
  for (std::thread& w : workers) w.join();

  analysis_options serial = opts;
  serial.inline_execution = false;
  std::map<double, double> reference;
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      serial.horizon = horizon_of(t, round);
      if (!reference.contains(serial.horizon)) {
        reference[serial.horizon] =
            analysis_engine(serial).run(tree).failure_probability;
      }
      EXPECT_EQ(results[static_cast<std::size_t>(t * kRounds + round)],
                reference[serial.horizon])
          << "thread " << t << " round " << round;
    }
  }
  EXPECT_GT(engine.cache().chain_reuses(), 0u);
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

TEST(Engine, RejectsInvalidNumericOptions) {
  // A static model needs no transient solve, so nothing downstream would
  // notice a negative horizon: run() and prime() must reject it up front.
  const sd_fault_tree tree(testing::example1_static());
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  std::vector<analysis_options> bad;
  for (const double horizon : {-5.0, nan, inf}) {
    bad.emplace_back().horizon = horizon;
  }
  for (const double cutoff : {-1.0, nan, inf}) {
    bad.emplace_back().cutoff = cutoff;
  }
  for (const double epsilon : {0.0, 1.0, -1e-10, nan}) {
    bad.emplace_back().epsilon = epsilon;
  }
  for (analysis_options& opts : bad) {
    analysis_engine engine(opts);
    EXPECT_THROW(engine.run(tree), model_error)
        << opts.horizon << " " << opts.cutoff << " " << opts.epsilon;
    EXPECT_THROW(engine.prime(tree), model_error);
    opts.backend = cutset_backend::mc;
    EXPECT_THROW(engine.run(tree, opts), model_error);
  }

  analysis_options edge;
  edge.horizon = 0.0;
  edge.cutoff = 0.0;
  EXPECT_NO_THROW(analyze(tree, edge));
}

// --- One pool per engine ---------------------------------------------------

TEST(EnginePool, BuiltOnceAtConstruction) {
  analysis_options opts;
  opts.threads = 3;
  analysis_engine engine(opts);
  ASSERT_NE(engine.pool(opts), nullptr);
  EXPECT_EQ(engine.pool(opts)->size(), 3u);
  // Per-call options neither resize the pool nor replace it.
  analysis_options per_call = opts;
  per_call.threads = 5;
  const analysis_result r = engine.run(testing::example3_sd(), per_call);
  EXPECT_EQ(r.stats.pool_threads, 3u);
  per_call.inline_execution = true;
  EXPECT_EQ(engine.run(testing::example3_sd(), per_call).stats.pool_threads,
            1u);

  opts.threads = 1;
  EXPECT_EQ(analysis_engine(opts).pool(opts), nullptr);
  opts.threads = 3;
  opts.inline_execution = true;
  EXPECT_EQ(analysis_engine(opts).pool(opts), nullptr);
}

TEST(EnginePool, ConcurrentRunsMatchSerialReference) {
  // Four threads share one engine and its pool, every run on the pool
  // (stage 2 and stage 3), with per-call cutoffs and horizons so cold
  // generations overlap with structure-cache replays. Each result must be
  // bit-identical to a serial one-shot analysis at the same options.
  annotation_options aopts;
  aopts.dynamic_fraction = 0.3;
  aopts.trigger_fraction = 0.1;
  const sd_fault_tree tree = testing::annotated_study(
      testing::small_industrial_model(7), 1e-15, aopts);

  analysis_options base;
  base.threads = 3;
  base.keep_cutset_details = true;
  const auto options_for = [&](int t, int round) {
    analysis_options o = base;
    o.cutoff = (t + round) % 2 == 0 ? 1e-15 : 1e-12;
    o.horizon = t < 2 ? 24.0 : 48.0;
    return o;
  };

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<analysis_result> results(kThreads * kRounds);
  analysis_engine engine(base);
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        results[static_cast<std::size_t>(t * kRounds + round)] =
            engine.run(tree, options_for(t, round));
      }
    });
  }
  for (std::thread& c : callers) c.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      analysis_options serial = options_for(t, round);
      serial.threads = 1;
      const analysis_result expected = analyze(tree, serial);
      const analysis_result& got =
          results[static_cast<std::size_t>(t * kRounds + round)];
      const std::string label =
          "caller " + std::to_string(t) + " round " + std::to_string(round);
      EXPECT_EQ(got.stats.pool_threads, 3u) << label;
      EXPECT_EQ(got.failure_probability, expected.failure_probability)
          << label;
      ASSERT_EQ(got.cutsets.size(), expected.cutsets.size()) << label;
      for (std::size_t i = 0; i < got.cutsets.size(); ++i) {
        EXPECT_EQ(got.cutsets[i].events, expected.cutsets[i].events) << label;
        EXPECT_EQ(got.cutsets[i].probability, expected.cutsets[i].probability)
            << label << " cutset " << i;
      }
    }
  }
}

TEST(EnginePool, ConcurrentRunsCountOnlyTheirOwnPoolWork) {
  // Two callers run data/bwr.sdft on one engine at once. Each run's pool
  // counters must equal a lone run's: stage 2's work when it generated (a
  // structure-cache replay runs none), stage 3's always.
  std::ifstream in(std::string(SDFT_DATA_DIR) + "/bwr.sdft");
  const sd_fault_tree tree = parse_sd_fault_tree(in);
  analysis_options opts;
  opts.threads = 3;
  opts.cutoff = 1e-15;
  const analysis_result lone = analysis_engine(opts).run(tree, opts);
  ASSERT_GT(lone.stats.mocus_pool_work, 0u);
  // One claim-loop job per worker plus one claim per cutset.
  EXPECT_EQ(lone.stats.quantify_pool_work, lone.num_cutsets + 3);

  for (int round = 0; round < 4; ++round) {
    analysis_engine engine(opts);
    analysis_result results[2];
    std::latch start(2);
    std::vector<std::thread> callers;
    for (analysis_result& r : results) {
      callers.emplace_back([&] {
        start.arrive_and_wait();
        r = engine.run(tree, opts);
      });
    }
    for (std::thread& c : callers) c.join();
    for (const analysis_result& r : results) {
      const std::string label = "round " + std::to_string(round);
      EXPECT_EQ(r.stats.mocus_pool_work,
                r.stats.struct_cache_hits == 1 ? 0u
                                               : lone.stats.mocus_pool_work)
          << label;
      EXPECT_EQ(r.stats.quantify_pool_work, lone.stats.quantify_pool_work)
          << label;
      EXPECT_LE(r.stats.quantify_occupancy, 1.0) << label;
      EXPECT_EQ(r.failure_probability, lone.failure_probability) << label;
    }
  }
}

}  // namespace
}  // namespace sdft
