// Property-based tests on randomly generated SD fault trees: the pipeline
// is checked against the exact product semantics, and the FT-bar
// translation against the structural minimal cutsets (paper §V-B1).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ctmc/triggered.hpp"
#include "engine/engine.hpp"
#include "mcs/mocus.hpp"
#include "product/product_ctmc.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "sdft/translate.hpp"
#include "test_models.hpp"

namespace sdft {
namespace {

using testing::make_random_sd_tree;
using testing::random_sd_tree;

class RandomSdTrees : public ::testing::TestWithParam<int> {};

TEST_P(RandomSdTrees, TranslationRefinesStructuralCutsets) {
  const random_sd_tree r =
      make_random_sd_tree(0x5d + static_cast<std::uint64_t>(GetParam()));
  const static_translation tr = translate_to_static(r.tree, 12.0);
  auto bar_cutsets = mocus(tr.ft_bar).cutsets;
  std::vector<cutset> mapped;
  for (auto& c : bar_cutsets) {
    cutset m;
    for (node_index b : c) m.push_back(tr.to_sd.at(b));
    std::sort(m.begin(), m.end());
    mapped.push_back(std::move(m));
  }

  // FT-bar folds the triggering requirements into the cutsets: every
  // FT-bar MCS must (a) structurally fail the top gate and (b) for each of
  // its triggered events also contain a cause for the trigger. (a) is
  // equivalent to containing some structural MCS.
  const auto structural = mocus(r.tree.structure()).cutsets;
  const auto& ft = r.tree.structure();
  for (const auto& c : mapped) {
    std::vector<char> scenario(ft.size(), 0);
    for (node_index b : c) scenario[b] = 1;
    EXPECT_TRUE(ft.fails(ft.top(), scenario));
    for (node_index b : c) {
      const node_index trig = r.tree.trigger_gate_of(b);
      if (trig != fault_tree::npos) {
        EXPECT_TRUE(ft.fails(trig, scenario))
            << "triggered event without trigger cause in cutset";
      }
    }
  }

  // Without triggered events the translation is the identity on cutsets.
  if (r.num_triggered == 0) {
    EXPECT_EQ(minimize_cutsets(std::move(mapped)), structural);
  }
}

TEST_P(RandomSdTrees, PipelineOverApproximatesExactSemantics) {
  const random_sd_tree r =
      make_random_sd_tree(0x5d + static_cast<std::uint64_t>(GetParam()));
  const double t = 12.0;
  analysis_options opts;
  opts.horizon = t;
  opts.threads = 2;
  const analysis_result result = analyze(r.tree, opts);
  for (const auto& q : result.cutsets) EXPECT_TRUE(q.error.empty()) << q.error;

  const double exact = exact_failure_probability(r.tree, t);
  // Rare-event sum over all cutsets is an over-approximation (paper §V
  // property iii; with these event probabilities the slack is bounded by
  // the pairwise products, so a generous factor suffices as an upper
  // sanity bound).
  EXPECT_GE(result.failure_probability, exact - 1e-9)
      << "seed " << GetParam();
  EXPECT_LE(result.failure_probability, 8.0 * exact + 1e-9)
      << "seed " << GetParam();
}

TEST_P(RandomSdTrees, ApproximationModesBracketClassified) {
  const random_sd_tree r =
      make_random_sd_tree(0x9e1 + static_cast<std::uint64_t>(GetParam()));
  analysis_options opts;
  opts.horizon = 12.0;
  opts.mode = approx_mode::under_approximate;
  const double under = analyze(r.tree, opts).failure_probability;
  opts.mode = approx_mode::as_classified;
  const double classified = analyze(r.tree, opts).failure_probability;
  opts.mode = approx_mode::over_approximate;
  const double over = analyze(r.tree, opts).failure_probability;
  EXPECT_LE(under, classified + 1e-12) << "seed " << GetParam();
  EXPECT_GE(over, classified - 1e-12) << "seed " << GetParam();
}

TEST_P(RandomSdTrees, MocusMatchesBddOracle) {
  // The engine's MOCUS cutset list must equal the BDD oracle's complete
  // minimal-cutset list of FT-bar, in the engine's canonical order.
  const random_sd_tree r =
      make_random_sd_tree(0x5d + static_cast<std::uint64_t>(GetParam()));
  analysis_options opts;
  opts.horizon = 12.0;
  const analysis_result result = analyze(r.tree, opts);
  EXPECT_EQ(testing::engine_cutsets(result),
            testing::bdd_oracle_cutsets(r.tree, opts))
      << "seed " << GetParam();
}

TEST_P(RandomSdTrees, HorizonMonotonicity) {
  const random_sd_tree r =
      make_random_sd_tree(0x111 + static_cast<std::uint64_t>(GetParam()));
  double last = -1.0;
  for (double t : {2.0, 8.0, 32.0}) {
    const double p = exact_failure_probability(r.tree, t);
    // Non-strict up to solver accuracy: purely static trees are flat in t.
    EXPECT_GE(p, last - 1e-9) << "t=" << t << " seed " << GetParam();
    last = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSdTrees, ::testing::Range(0, 20));

}  // namespace
}  // namespace sdft
