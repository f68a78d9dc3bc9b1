// Determinism regression tests for the parallel cutset-generation stage:
// the engine must produce the identical sorted cutset list and the
// bit-identical failure probability for every thread count, with the prep
// rewrite/modularization layer on or off — 6 configurations against the
// serial no-prep reference. Exercised on the BWR example study, random SD
// trees and a small industrial model. (That the list equals the BDD's is
// engine_test's job.) The engine always memoises; its cached probabilities
// are checked cutset by cutset against the quantifiers built without any
// cache.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/quantifier.hpp"
#include "gen/bwr.hpp"
#include "mcs/mocus.hpp"
#include "sdft/translate.hpp"
#include "test_models.hpp"
#include "util/thread_pool.hpp"

namespace sdft {
namespace {

/// One analysis configuration of the determinism matrix.
struct config {
  std::size_t threads;
  bool prep;

  std::string label() const {
    return "threads=" + std::to_string(threads) +
           (prep ? " prep" : " no-prep");
  }
};

std::vector<config> matrix() {
  std::vector<config> out;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (bool prep : {false, true}) out.push_back({threads, prep});
  }
  return out;
}

/// Runs every configuration of the matrix on `tree` and asserts the cutset
/// list and the failure probability are identical (EXPECT_EQ on doubles:
/// bit-identical) to the serial MOCUS reference.
void expect_deterministic(const sd_fault_tree& tree, double horizon,
                          double cutoff, const std::string& model) {
  analysis_options opts;
  opts.horizon = horizon;
  opts.cutoff = cutoff;
  opts.keep_cutset_details = true;
  opts.threads = 1;
  opts.backend = cutset_backend::mocus;
  opts.prep.enabled = false;
  const analysis_result reference = analyze(tree, opts);
  ASSERT_GT(reference.num_cutsets, 0u) << model;
  const std::vector<cutset> reference_list =
      testing::engine_cutsets(reference);

  for (const config& c : matrix()) {
    opts.threads = c.threads;
    opts.prep.enabled = c.prep;
    const analysis_result r = analyze(tree, opts);
    EXPECT_EQ(testing::engine_cutsets(r), reference_list)
        << model << ": " << c.label();
    EXPECT_EQ(r.failure_probability, reference.failure_probability)
        << model << ": " << c.label();
  }
}

/// Runs one engine twice on `tree` (cold, then fully warm: every structure
/// and transient solve from the caches) and requires every cutset's
/// probability to equal, bit for bit, a fresh quantification of the same
/// cutset by the static product or the product-chain quantifier built
/// without any cache or memo — and the failure probability to be their
/// rare-event sum in list order.
void expect_cached_matches_uncached(const sd_fault_tree& tree, double horizon,
                                    double cutoff, const std::string& model) {
  analysis_options opts;
  opts.horizon = horizon;
  opts.cutoff = cutoff;
  opts.threads = 3;
  analysis_engine engine(opts);
  const analysis_result cold = engine.run(tree);
  const analysis_result warm = engine.run(tree);
  ASSERT_GT(cold.num_dynamic_cutsets, 0u) << model;
  EXPECT_GT(cold.stats.cache_hits, 0u) << model;
  EXPECT_EQ(warm.stats.struct_cache_hits, 1u) << model;
  EXPECT_EQ(warm.stats.cache_misses, 0u) << model;

  const static_translation translation =
      translate_to_static(tree, opts.horizon, opts.epsilon);
  quantify_options qopts;
  qopts.horizon = opts.horizon;
  qopts.epsilon = opts.epsilon;
  qopts.max_product_states = opts.max_product_states;
  qopts.mode = opts.mode;
  const static_product_quantifier static_quantifier(tree);
  const product_chain_quantifier chain_quantifier(tree, translation, qopts,
                                                  nullptr);
  for (const analysis_result* run : {&cold, &warm}) {
    const std::string label = model + (run == &cold ? " cold" : " warm");
    ASSERT_EQ(run->cutsets.size(), cold.num_cutsets) << label;
    double sum = 0.0;
    for (const cutset_result& c : run->cutsets) {
      const quantifier& q =
          static_quantifier.handles(c.events)
              ? static_cast<const quantifier&>(static_quantifier)
              : chain_quantifier;
      const cutset_result reference = q.quantify(c.events);
      ASSERT_EQ(c.probability, reference.probability) << label;
      ASSERT_EQ(c.dynamic, reference.dynamic) << label;
      if (reference.probability > cutoff) sum += reference.probability;
    }
    EXPECT_EQ(run->failure_probability, sum) << label;
  }
}

TEST(Determinism, BwrDynamicStudy) {
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  const sd_fault_tree tree = make_bwr_model(with_bwr_triggers(opt, 2));
  expect_deterministic(tree, 24.0, 1e-12, "bwr");
}

TEST(Determinism, CachedMatchesUncachedQuantifiers) {
  bwr_options bwr;
  bwr.dynamic_events = true;
  bwr.repair_rate = 0.01;
  expect_cached_matches_uncached(
      make_bwr_model(with_bwr_triggers(bwr, bwr_num_triggers)), 24.0, 1e-15,
      "bwr");

  // Bench-size industrial model 1 with the paper's §VI-B annotation.
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  expect_cached_matches_uncached(
      testing::annotated_study(
          generate_industrial(bench::model1_options(false)), 1e-15, an),
      24.0, 1e-15, "industrial model 1");
}

TEST(Determinism, RandomSdTrees) {
  for (int seed : {3, 7, 12}) {
    const testing::random_sd_tree r =
        testing::make_random_sd_tree(0x5d + static_cast<std::uint64_t>(seed));
    expect_deterministic(r.tree, 12.0, 0.0,
                         "random seed " + std::to_string(seed));
  }
}

TEST(Determinism, IndustrialAnnotatedModel) {
  // This downsized study multiplies enough small probabilities that its
  // cutsets sit below the paper's 1e-15 cutoff; 1e-20 keeps ~2000 of them.
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  const sd_fault_tree tree = testing::annotated_study(
      testing::small_industrial_model(5), 1e-18, an);
  expect_deterministic(tree, 24.0, 1e-20, "industrial");
}

TEST(Determinism, McBackendThreadInvariant) {
  // The mc backend dimension of the matrix: estimates must be
  // bit-identical for every thread count and batch size at a fixed seed,
  // for every estimator family. Streams are keyed by global trajectory
  // index (or replication/stage/slot) and batch partials reduce in index
  // order, so the schedule can never leak into the result.
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  const sd_fault_tree tree = make_bwr_model(with_bwr_triggers(opt, 2));
  for (sim::mc_method method :
       {sim::mc_method::crude, sim::mc_method::forcing,
        sim::mc_method::splitting}) {
    analysis_options opts;
    opts.horizon = 24.0;
    opts.backend = cutset_backend::mc;
    opts.mc.method = method;
    opts.mc.trajectories = 20'000;
    opts.mc.seed = 31;
    opts.threads = 1;
    const analysis_result reference = analyze(tree, opts);
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      opts.threads = threads;
      const analysis_result r = analyze(tree, opts);
      EXPECT_EQ(r.failure_probability, reference.failure_probability)
          << to_string(method) << " threads=" << threads;
      EXPECT_EQ(r.mc.std_error, reference.mc.std_error)
          << to_string(method) << " threads=" << threads;
      EXPECT_EQ(r.mc.failures, reference.mc.failures)
          << to_string(method) << " threads=" << threads;
    }
    opts.threads = 8;
    opts.mc.batch = 512;
    const analysis_result rebatched = analyze(tree, opts);
    EXPECT_EQ(rebatched.failure_probability, reference.failure_probability)
        << to_string(method) << " batch=512";
  }
}

TEST(Determinism, RawMocusParallelMatchesSerial) {
  // Below the engine: the raw MOCUS driver itself must emit the identical
  // result structure inline and with its frontier drains on a pool. Which
  // partials each walk expands depends only on the breadth-first frontier,
  // which does not depend on the pool, so the counters must match the
  // inline run exactly, both at the default dedup_limit (no visited set
  // clears) and at a limit of 1000, where the larger drains clear their
  // own sets.
  const industrial_model model = generate_industrial(industrial_options{});
  for (const std::size_t limit : {mocus_options{}.dedup_limit,
                                  std::size_t{1000}}) {
    mocus_options inline_opts;
    inline_opts.cutoff = 1e-15;
    inline_opts.dedup_limit = limit;
    const mocus_result inline_run = mocus(model.ft, inline_opts);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      thread_pool pool(threads);
      mocus_options par_opts = inline_opts;
      par_opts.pool = &pool;
      const pool_tally tally(&pool);
      const mocus_result parallel = mocus(model.ft, par_opts);

      const std::string at = std::to_string(threads) + " threads, limit " +
                             std::to_string(limit);
      EXPECT_EQ(parallel.cutsets, inline_run.cutsets) << at;
      EXPECT_EQ(parallel.partials_processed, inline_run.partials_processed)
          << at;
      EXPECT_EQ(parallel.cutoff_discarded, inline_run.cutoff_discarded)
          << at;
      EXPECT_EQ(parallel.lookahead_pruned, inline_run.lookahead_pruned)
          << at;
      // The drains really ran on the pool's workers.
      EXPECT_GT(tally.executed(), 0u) << at;
    }
  }
}

}  // namespace
}  // namespace sdft
