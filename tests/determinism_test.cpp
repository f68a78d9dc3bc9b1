// Determinism regression tests for the parallel cutset-generation stage:
// the engine must produce the identical sorted cutset list and the
// bit-identical failure probability for every thread count, with or
// without the quantification cache, and with the prep rewrite/
// modularization layer on or off — 12 configurations against the serial
// no-prep reference. Exercised on the BWR example study, random SD trees
// and a small industrial model. (That the list equals the BDD's, under
// every variable ordering, is bdd_ordering_test's and engine_test's job.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/importance.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"
#include "util/thread_pool.hpp"

namespace sdft {
namespace {

/// One analysis configuration of the determinism matrix.
struct config {
  std::size_t threads;
  bool cache;
  bool prep;

  std::string label() const {
    return "threads=" + std::to_string(threads) +
           (cache ? " cache" : " no-cache") + (prep ? " prep" : " no-prep");
  }
};

std::vector<config> matrix() {
  std::vector<config> out;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (bool prep : {false, true}) {
      for (bool cache : {false, true}) out.push_back({threads, cache, prep});
    }
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
  opts.cache_quantifications = false;
  opts.prep.enabled = false;
  const analysis_result reference = analyze(tree, opts);
  ASSERT_GT(reference.num_cutsets, 0u) << model;
  const std::vector<cutset> reference_list =
      testing::engine_cutsets(reference);

  for (const config& c : matrix()) {
    opts.threads = c.threads;
    opts.cache_quantifications = c.cache;
    opts.prep.enabled = c.prep;
    const analysis_result r = analyze(tree, opts);
    EXPECT_EQ(testing::engine_cutsets(r), reference_list)
        << model << ": " << c.label();
    EXPECT_EQ(r.failure_probability, reference.failure_probability)
        << model << ": " << c.label();
  }
}

TEST(Determinism, BwrDynamicStudy) {
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  const sd_fault_tree tree = make_bwr_model(with_bwr_triggers(opt, 2));
  expect_deterministic(tree, 24.0, 1e-12, "bwr");
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
  industrial_options gopt;
  gopt.seed = 5;
  gopt.num_frontline_systems = 6;
  gopt.num_support_systems = 2;
  gopt.num_initiating_events = 4;
  gopt.sequences_per_ie = 3;
  gopt.components_per_train = 3;
  const industrial_model model = generate_industrial(gopt);
  // This downsized study multiplies enough small probabilities that its
  // cutsets sit below the paper's 1e-15 cutoff; 1e-20 keeps ~2000 of them.
  mocus_options mopts;
  mopts.cutoff = 1e-18;
  const mocus_result mcs = mocus(model.ft, mopts);
  ASSERT_GT(mcs.cutsets.size(), 0u);
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  const sd_fault_tree tree = annotate_dynamic(
      model, rank_by_fussell_vesely(model.ft, mcs.cutsets), an);
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
  // result structure for the serial and the work-stealing parallel path.
  // The model stays below dedup_limit, so no visited shard may overflow and
  // clear: every distinct partial is expanded exactly once on either path,
  // and the counters must match the serial run exactly.
  const industrial_model model = generate_industrial(industrial_options{});
  mocus_options serial_opts;
  serial_opts.cutoff = 1e-15;
  const mocus_result serial = mocus(model.ft, serial_opts);
  EXPECT_EQ(serial.threads_used, 1u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    thread_pool pool(threads);
    mocus_options par_opts = serial_opts;
    par_opts.pool = &pool;
    const mocus_result parallel = mocus(model.ft, par_opts);

    EXPECT_EQ(parallel.cutsets, serial.cutsets) << threads << " threads";
    EXPECT_EQ(parallel.partials_processed, serial.partials_processed)
        << threads << " threads";
    EXPECT_EQ(parallel.cutoff_discarded, serial.cutoff_discarded)
        << threads << " threads";
    EXPECT_EQ(parallel.lookahead_pruned, serial.lookahead_pruned)
        << threads << " threads";
    EXPECT_EQ(parallel.threads_used, pool.size());
  }
}

}  // namespace
}  // namespace sdft
