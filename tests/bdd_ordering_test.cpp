// Property tests of the BDD variable-ordering heuristics: every ordering
// (natural / dfs / weight / sift) must produce the identical canonical
// minimal-cutset list (ordering changes BDD shape, never the encoded
// function), the same exact probability up to floating-point association,
// and the engine's --exact-static probability must sit inside its analytic
// bracket (above every single cutset and the Bonferroni lower bound, below
// the rare-event sum and the min-cut upper bound).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bdd/ft_bdd.hpp"
#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"

namespace sdft {
namespace {

const bdd_ordering kAllOrderings[] = {bdd_ordering::dfs, bdd_ordering::natural,
                                      bdd_ordering::weight,
                                      bdd_ordering::sift};

/// Compiles `ft` under every ordering and asserts: bit-identical canonical
/// cutset lists (also equal to MOCUS's), near-equal exact probabilities.
void expect_ordering_invariant(const fault_tree& ft, const std::string& model) {
  const ft_bdd reference(ft);
  const std::vector<cutset> reference_mcs = reference.minimal_cutsets();
  const double reference_p = reference.probability();
  ASSERT_FALSE(reference_mcs.empty()) << model;
  EXPECT_EQ(reference.ordering(), bdd_ordering::dfs) << model;
  EXPECT_EQ(reference.sift_swaps(), 0u) << model;

  for (const bdd_ordering ordering : kAllOrderings) {
    const ft_bdd compiled(ft, fault_tree::npos, ordering);
    EXPECT_EQ(compiled.ordering(), ordering) << model;
    EXPECT_EQ(compiled.minimal_cutsets(), reference_mcs)
        << model << " ordering " << to_string(ordering);
    // Shannon sums associate differently per ordering: near-equality, not
    // bit-equality, is the contract for the probability.
    EXPECT_NEAR(compiled.probability(), reference_p,
                1e-12 * std::max(reference_p, 1e-300))
        << model << " ordering " << to_string(ordering);
  }

  // MOCUS agrees on the same canonical list (AND/OR trees only).
  const mocus_result mcs = mocus(ft);
  EXPECT_EQ(mcs.cutsets, reference_mcs) << model;
}

TEST(BddOrdering, RunningExampleInvariantAcrossOrderings) {
  expect_ordering_invariant(testing::example1_static(), "example1");
}

TEST(BddOrdering, RandomStaticTreesInvariantAcrossOrderings) {
  for (const std::uint64_t seed : {11u, 21u, 31u, 41u, 51u}) {
    const sd_fault_tree tree = testing::make_random_static_tree(seed, 10, 6);
    expect_ordering_invariant(tree.structure(),
                              "random seed " + std::to_string(seed));
  }
}

TEST(BddOrdering, IndustrialModelInvariantAcrossOrderings) {
  industrial_options gopt;
  gopt.seed = 9;
  gopt.num_frontline_systems = 4;
  gopt.num_support_systems = 1;
  gopt.num_initiating_events = 2;
  gopt.sequences_per_ie = 2;
  gopt.components_per_train = 2;
  const industrial_model model = generate_industrial(gopt);
  const ft_bdd reference(model.ft);
  const std::vector<cutset> reference_mcs = reference.minimal_cutsets();
  ASSERT_FALSE(reference_mcs.empty());
  for (const bdd_ordering ordering : kAllOrderings) {
    const ft_bdd compiled(model.ft, fault_tree::npos, ordering);
    EXPECT_EQ(compiled.minimal_cutsets(), reference_mcs)
        << "ordering " << to_string(ordering);
    EXPECT_NEAR(compiled.probability(), reference.probability(),
                1e-12 * std::max(reference.probability(), 1e-300))
        << "ordering " << to_string(ordering);
  }
}

TEST(BddOrdering, SiftingActuallySwapsAndNeverGrowsTheCompactedBdd) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd sifted(ft, fault_tree::npos, bdd_ordering::sift);
  EXPECT_GT(sifted.sift_swaps(), 0u);
  // After sifting the manager is compacted to live nodes; the DFS build
  // also holds its construction garbage, so sift can only be smaller.
  const ft_bdd dfs(ft);
  EXPECT_LE(sifted.node_count(), dfs.node_count());
}

TEST(BddOrdering, ExactProbabilityMatchesBruteForce) {
  // The strongest oracle available: exhaustive scenario enumeration, for
  // every ordering (trees are small enough for 2^n sweeps).
  const fault_tree ft = testing::example1_static();
  const double brute = ft.probability_brute_force();
  for (const bdd_ordering ordering : kAllOrderings) {
    const ft_bdd compiled(ft, fault_tree::npos, ordering);
    EXPECT_NEAR(compiled.probability(), brute, 1e-14)
        << "ordering " << to_string(ordering);
  }
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

TEST(BddOrdering, ExactStaticSitsInsideItsAnalyticBracket) {
  for (const std::uint64_t seed : {5u, 15u, 25u}) {
    const sd_fault_tree tree = testing::make_random_static_tree(seed, 10, 6);
    const fault_tree& ft = tree.structure();
    const ft_bdd compiled(ft);
    expect_exact_within_bounds(ft, compiled.minimal_cutsets(),
                               compiled.probability(),
                               "seed " + std::to_string(seed));
  }
}

TEST(BddOrdering, EngineExactStaticOnStaticModel) {
  // On a purely static model FT-bar is the structure itself, so the
  // engine's --exact-static probability must equal brute force and bound
  // the truncated rare-event pipeline result from below.
  const sd_fault_tree tree(testing::example1_static());
  for (const bdd_ordering ordering : kAllOrderings) {
    analysis_options opts;
    opts.exact_static = true;
    opts.bdd_ordering = ordering;
    const analysis_result result = analyze(tree, opts);
    EXPECT_NEAR(result.exact_static_probability,
                tree.structure().probability_brute_force(), 1e-14)
        << "ordering " << to_string(ordering);
    // Without truncation the pipeline sum is the full rare-event sum S1,
    // an upper bound on the exact probability; the gap is at most the
    // second Bonferroni term S2.
    EXPECT_GE(result.failure_probability,
              result.exact_static_probability - 1e-15)
        << "ordering " << to_string(ordering);
    EXPECT_LE(result.failure_probability - result.exact_static_probability,
              1e-7)
        << "ordering " << to_string(ordering);
    EXPECT_GT(result.exact_static_probability, 0.0);
  }
}

TEST(BddOrdering, EngineExactStaticOnBwrStudy) {
  // SD model: exact static probability of FT-bar (worst-case dynamic
  // probabilities) certifies the static cutset sum from above.
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  const sd_fault_tree tree = make_bwr_model(with_bwr_triggers(opt, 2));
  analysis_options opts;
  opts.exact_static = true;
  opts.cutoff = 1e-12;
  double reference = -1.0;
  for (const bdd_ordering ordering : kAllOrderings) {
    opts.bdd_ordering = ordering;
    const analysis_result result = analyze(tree, opts);
    ASSERT_GT(result.exact_static_probability, 0.0)
        << "ordering " << to_string(ordering);
    EXPECT_GT(result.stats.exact_static_seconds, 0.0);
    if (reference < 0.0) {
      reference = result.exact_static_probability;
    } else {
      EXPECT_NEAR(result.exact_static_probability, reference,
                  1e-12 * reference)
          << "ordering " << to_string(ordering);
    }
  }
}

TEST(BddOrdering, EngineExactStaticReportsItsBddNodes) {
  // bdd.nodes counts the exact-static BDD: non-zero exactly when the run
  // compiled (or reused) it, on the cutset path and on the mc backend,
  // and the same on a structure-cache hit as on the miss that built it.
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  const sd_fault_tree tree = make_bwr_model(with_bwr_triggers(opt, 2));
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

TEST(BddOrdering, ParseRoundTrips) {
  for (const bdd_ordering ordering : kAllOrderings) {
    const auto parsed = parse_bdd_ordering(to_string(ordering));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ordering);
  }
  EXPECT_FALSE(parse_bdd_ordering("bogus").has_value());
  EXPECT_FALSE(parse_bdd_ordering("").has_value());
}

}  // namespace
}  // namespace sdft
