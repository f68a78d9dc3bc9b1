// The engine's exact-static path: the prep tree compiled once in DFS
// order and frozen to a plan on its structure-cache entry. Its value must
// sit inside the analytic bracket of the cutset list (above every single
// cutset and the Bonferroni lower bound, below the rare-event sum and the
// min-cut upper bound), agree with the raw-tree BDD oracle and brute
// force, stay pinned bit for bit on the bundled models, and be the same
// from concurrent runs sharing one plan as from a fresh engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/ft_bdd.hpp"
#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "sdft/parser.hpp"
#include "test_models.hpp"

namespace sdft {
namespace {

/// The engine (prep tree) and the raw-tree BDD oracle agree to rounding.
void expect_matches_oracle(const fault_tree& ft, const std::string& model) {
  const double oracle = ft_bdd(ft).probability();
  EXPECT_NEAR(testing::engine_exact_static(ft), oracle,
              1e-12 * std::max(oracle, 1e-300))
      << model;
}

TEST(ExactStatic, MatchesTheRawTreeOracle) {
  expect_matches_oracle(testing::example1_static(), "example1");
  for (const std::uint64_t seed : {11u, 21u, 31u, 41u, 51u}) {
    const sd_fault_tree tree = testing::make_random_static_tree(seed, 10, 6);
    expect_matches_oracle(tree.structure(),
                          "random seed " + std::to_string(seed));
  }
  industrial_options gopt;
  gopt.seed = 9;
  gopt.num_frontline_systems = 4;
  gopt.num_support_systems = 1;
  gopt.num_initiating_events = 2;
  gopt.sequences_per_ie = 2;
  gopt.components_per_train = 2;
  expect_matches_oracle(generate_industrial(gopt).ft, "industrial");
}

TEST(ExactStatic, MatchesBruteForce) {
  // The strongest oracle available: exhaustive scenario enumeration.
  const fault_tree ft = testing::example1_static();
  EXPECT_NEAR(testing::engine_exact_static(ft), ft.probability_brute_force(),
              1e-14);
}

/// Analytic bracket for the exact static probability of a coherent tree
/// with minimal cutsets `mcs`:
///   max_C p(C)  and  S1 - S2 (Bonferroni)  <=  exact  <=
///   min(rare-event sum S1, min-cut upper bound).
void expect_exact_within_bounds(const fault_tree& ft,
                                const std::vector<cutset>& mcs, double exact,
                                const std::string& model) {
  ASSERT_FALSE(mcs.empty()) << model;
  double max_single = 0.0;
  for (const cutset& c : mcs) {
    max_single = std::max(max_single, cutset_probability(ft, c));
  }
  const double s1 = rare_event_probability(ft, mcs);
  double s2 = 0.0;
  for (std::size_t i = 0; i < mcs.size(); ++i) {
    for (std::size_t j = i + 1; j < mcs.size(); ++j) {
      cutset joint = mcs[i];
      joint.insert(joint.end(), mcs[j].begin(), mcs[j].end());
      std::sort(joint.begin(), joint.end());
      joint.erase(std::unique(joint.begin(), joint.end()), joint.end());
      s2 += cutset_probability(ft, joint);
    }
  }
  const double mcub = min_cut_upper_bound(ft, mcs);
  const double slack = 1e-12 * std::max(s1, 1e-300);
  EXPECT_GE(exact, max_single - slack) << model;
  EXPECT_GE(exact, s1 - s2 - slack) << model;
  EXPECT_LE(exact, s1 + slack) << model;
  EXPECT_LE(exact, mcub + slack) << model;
}

TEST(ExactStatic, SitsInsideItsAnalyticBracket) {
  for (const std::uint64_t seed : {5u, 15u, 25u}) {
    const sd_fault_tree tree = testing::make_random_static_tree(seed, 10, 6);
    const fault_tree& ft = tree.structure();
    expect_exact_within_bounds(ft, ft_bdd(ft).minimal_cutsets(),
                               testing::engine_exact_static(ft),
                               "seed " + std::to_string(seed));
  }
}

TEST(ExactStatic, EngineOnStaticModel) {
  // On a purely static model FT-bar is the structure itself, so the
  // engine's --exact-static probability must equal brute force and bound
  // the truncated rare-event pipeline result from below.
  const sd_fault_tree tree(testing::example1_static());
  analysis_options opts;
  opts.exact_static = true;
  const analysis_result result = analyze(tree, opts);
  EXPECT_NEAR(result.exact_static_probability,
              tree.structure().probability_brute_force(), 1e-14);
  // Without truncation the pipeline sum is the full rare-event sum S1,
  // an upper bound on the exact probability; the gap is at most the
  // second Bonferroni term S2.
  EXPECT_GE(result.failure_probability,
            result.exact_static_probability - 1e-15);
  EXPECT_LE(result.failure_probability - result.exact_static_probability,
            1e-7);
  EXPECT_GT(result.exact_static_probability, 0.0);
}

sd_fault_tree bwr_with_triggers(std::size_t triggers) {
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  return make_bwr_model(with_bwr_triggers(opt, triggers));
}

TEST(ExactStatic, EngineOnBwrStudy) {
  // SD model: exact static probability of FT-bar (worst-case dynamic
  // probabilities) certifies the static cutset sum from above.
  analysis_options opts;
  opts.exact_static = true;
  opts.cutoff = 1e-12;
  const analysis_result result = analyze(bwr_with_triggers(2), opts);
  EXPECT_GT(result.exact_static_probability, 0.0);
  EXPECT_GT(result.stats.exact_static_seconds, 0.0);
}

TEST(ExactStatic, EngineReportsItsBddNodes) {
  // bdd.nodes counts the exact-static BDD: non-zero exactly when the run
  // compiled (or reused) it, on the cutset path and on the mc backend,
  // and the same on a structure-cache hit as on the miss that built it.
  const sd_fault_tree tree = bwr_with_triggers(2);
  for (const cutset_backend backend :
       {cutset_backend::mocus, cutset_backend::mc}) {
    analysis_options opts;
    opts.backend = backend;
    opts.cutoff = 1e-12;
    opts.mc.trajectories = 1000;
    analysis_engine engine(opts);
    EXPECT_EQ(engine.run(tree).stats.bdd_nodes, 0u) << to_string(backend);
    opts.exact_static = true;
    const analysis_result first = engine.run(tree, opts);
    EXPECT_GT(first.stats.bdd_nodes, 0u) << to_string(backend);
    EXPECT_EQ(engine.run(tree, opts).stats.bdd_nodes, first.stats.bdd_nodes)
        << to_string(backend);
  }
}

TEST(ExactStatic, PinnedValues) {
  // The exact-static value and compile size of every bundled model and of
  // BWR with two triggers, bit for bit: the DFS order and the plan kernel
  // fix both.
  struct pinned {
    std::string model;
    double probability;
    std::size_t nodes;
  };
  const pinned expected[] = {
      {"bwr.sdft", 0x1.d459d3d237a88p-22, 959},
      {"cooling.sdft", 0x1.75bdcd305ad4ap-11, 16},
      {"sequential_trains.sdft", 0x1.35ceee31b455bp-17, 31},
      {"static_plant.sdft", 0x1.f8504440add7bp-27, 29},
  };
  analysis_options opts;
  opts.exact_static = true;
  for (const pinned& p : expected) {
    std::ifstream in(std::string(SDFT_DATA_DIR) + "/" + p.model);
    ASSERT_TRUE(in) << p.model;
    const analysis_result r = analyze(parse_sd_fault_tree(in), opts);
    EXPECT_EQ(r.exact_static_probability, p.probability) << p.model;
    EXPECT_EQ(r.stats.bdd_nodes, p.nodes) << p.model;
  }
  opts.cutoff = 1e-12;
  const analysis_result bwr = analyze(bwr_with_triggers(2), opts);
  EXPECT_EQ(bwr.exact_static_probability, 0x1.d459d3e2f1b38p-22);
  EXPECT_EQ(bwr.stats.bdd_nodes, 959u);
}

TEST(ExactStatic, ConcurrentRunsShareOneFrozenPlan) {
  // Eight threads on one engine, each with its own static probabilities.
  // The engine is primed without exact-static, so all eight hit one
  // structure entry whose plan none has compiled yet: one compiles it,
  // the rest wait for it, then all evaluate it at once. Every answer must
  // equal a fresh engine's, bit for bit.
  const sd_fault_tree base = bwr_with_triggers(2);
  analysis_options opts;  // cutoff 0: the entry serves every point
  analysis_engine engine(opts);
  (void)engine.run(base);
  opts.exact_static = true;

  const std::vector<node_index> statics = base.static_events();
  constexpr std::size_t threads = 8;
  ASSERT_GE(statics.size(), threads);
  std::vector<sd_fault_tree> trees(threads, base);
  for (std::size_t t = 0; t < threads; ++t) {
    fault_tree& ft = trees[t].structure();
    ft.set_probability(statics[t], ft.node(statics[t]).probability / (t + 2));
  }
  std::vector<analysis_result> shared(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&, t] { shared[t] = engine.run(trees[t], opts); });
  }
  for (std::thread& w : workers) w.join();

  for (std::size_t t = 0; t < threads; ++t) {
    const analysis_result fresh = analyze(trees[t], opts);
    EXPECT_EQ(shared[t].stats.struct_cache_hits, 1u) << t;
    EXPECT_EQ(shared[t].exact_static_probability,
              fresh.exact_static_probability)
        << t;
    EXPECT_EQ(shared[t].stats.bdd_nodes, fresh.stats.bdd_nodes) << t;
    EXPECT_EQ(shared[t].failure_probability, fresh.failure_probability) << t;
  }
  EXPECT_NE(shared[0].exact_static_probability,
            shared[1].exact_static_probability);
}

}  // namespace
}  // namespace sdft
