// Structure-preservation tests for the src/prep rewrite layer: every
// rewrite (atleast lowering, folding, coalescing, duplicate merging,
// common-argument factoring, absorption) must leave the monotone structure
// function over the source basic events untouched — checked by exhaustive
// scenario enumeration, by minimal-cutset-list agreement and by running
// the full engine with prep on vs off across backends and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bdd/ft_bdd.hpp"
#include "engine/engine.hpp"
#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"
#include "mcs/mocus.hpp"
#include "prep/prep.hpp"
#include "test_models.hpp"

namespace sdft {
namespace {

/// Maps cutsets over the prep tree back to source indices and re-sorts
/// canonically (size, then content), mirroring the engine's order.
std::vector<cutset> mapped_to_source(const prep_result& prep,
                                     std::vector<cutset> sets) {
  for (cutset& c : sets) {
    for (node_index& e : c) e = prep.to_source[e];
    std::sort(c.begin(), c.end());
  }
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return sets;
}

std::vector<cutset> sorted_canonically(std::vector<cutset> sets) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return sets;
}

/// Exhaustively checks that the prep tree computes the same boolean
/// function of the source basic events as the source tree.
void expect_same_structure_function(const fault_tree& src,
                                    const prep_result& prep) {
  const std::vector<node_index> basics = src.basic_events();
  ASSERT_LE(basics.size(), 16u) << "scenario enumeration oracle limit";
  for (std::uint64_t mask = 0; mask < (1ull << basics.size()); ++mask) {
    std::vector<char> src_failed(src.size(), 0);
    for (std::size_t b = 0; b < basics.size(); ++b) {
      src_failed[basics[b]] = static_cast<char>((mask >> b) & 1u);
    }
    std::vector<char> prep_failed(prep.tree.size(), 0);
    for (node_index i = 0; i < prep.tree.size(); ++i) {
      if (!prep.tree.is_basic(i)) continue;
      ASSERT_NE(prep.to_source[i], fault_tree::npos);
      prep_failed[i] = src_failed[prep.to_source[i]];
    }
    ASSERT_EQ(src.fails(src.top(), src_failed),
              prep.tree.fails(prep.tree.top(), prep_failed))
        << "scenario mask " << mask;
  }
}

TEST(Prep, AtleastLoweringMatchesBruteForce) {
  for (std::uint32_t n = 2; n <= 6; ++n) {
    for (std::uint32_t k = 1; k <= n; ++k) {
      fault_tree src;
      std::vector<node_index> events;
      for (std::uint32_t i = 0; i < n; ++i) {
        events.push_back(src.add_basic_event("e" + std::to_string(i),
                                             0.05 + 0.03 * i));
      }
      src.set_top(src.add_atleast_gate("vote", k, events));
      const prep_result prep = preprocess(src);
      for (node_index i = 0; i < prep.tree.size(); ++i) {
        if (prep.tree.is_gate(i)) {
          EXPECT_NE(prep.tree.node(i).type, gate_type::atleast_gate);
        }
      }
      expect_same_structure_function(src, prep);
      EXPECT_NEAR(prep.tree.probability_brute_force(),
                  src.probability_brute_force(), 1e-15)
          << k << "/" << n;
      // The lowered network must yield exactly the C(n, k) minimal cutsets.
      const std::vector<cutset> mcs = mapped_to_source(
          prep, mocus(prep.tree, mocus_options{}).cutsets);
      EXPECT_EQ(mcs, sorted_canonically(minimal_cutsets_brute_force(src)))
          << k << "/" << n;
      EXPECT_TRUE(are_minimal_cutsets(src, mcs));
    }
  }
}

TEST(Prep, RandomTreesPreserveStructureFunctionAndCutsets) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const sd_fault_tree sd = testing::make_random_static_tree(0xb0 + seed);
    const fault_tree& src = sd.structure();
    const prep_result prep = preprocess(src);
    expect_same_structure_function(src, prep);

    // The prep tree's cutsets, mapped back, equal the source tree's own.
    const std::vector<cutset> from_prep = mapped_to_source(
        prep, mocus(prep.tree, mocus_options{}).cutsets);
    EXPECT_EQ(from_prep,
              sorted_canonically(mocus(src, mocus_options{}).cutsets))
        << "seed " << seed;

    // Exact top-event probability is preserved (BDD on both trees).
    EXPECT_NEAR(ft_bdd(prep.tree).probability(), ft_bdd(src).probability(),
                1e-14)
        << "seed " << seed;
  }
}

TEST(Prep, DisabledKeepsNormalisationOnly) {
  fault_tree src;
  std::vector<node_index> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(src.add_basic_event("e" + std::to_string(i), 0.1));
  }
  const node_index vote = src.add_atleast_gate("vote", 2, events);
  const node_index chain =
      src.add_gate("chain", gate_type::or_gate, {vote});  // foldable
  src.set_top(src.add_gate("top", gate_type::or_gate, {chain, events[0]}));

  prep_options opts;
  opts.enabled = false;
  const prep_result prep = preprocess(src, opts);
  for (node_index i = 0; i < prep.tree.size(); ++i) {
    if (prep.tree.is_gate(i)) {
      EXPECT_NE(prep.tree.node(i).type, gate_type::atleast_gate);
    }
  }
  EXPECT_GT(prep.stats.atleast_lowered, 0u);
  EXPECT_EQ(prep.stats.constants_folded, 0u);
  EXPECT_EQ(prep.stats.gates_coalesced, 0u);
  EXPECT_EQ(prep.stats.duplicates_merged, 0u);
  EXPECT_EQ(prep.stats.common_args_merged, 0u);
  EXPECT_EQ(prep.stats.absorptions, 0u);
  EXPECT_EQ(prep.module_roots,
            std::vector<node_index>{prep.tree.top()});
  expect_same_structure_function(src, prep);
}

TEST(Prep, RewritesFireOnRedundantTree) {
  // OR(AND(x, a), AND(x, b), OR(x, y), x) exercises factoring, absorption
  // and folding together; the function collapses to OR(x, y).
  fault_tree src;
  const node_index x = src.add_basic_event("x", 0.1);
  const node_index y = src.add_basic_event("y", 0.2);
  const node_index a = src.add_basic_event("a", 0.3);
  const node_index b = src.add_basic_event("b", 0.4);
  const node_index g1 = src.add_gate("g1", gate_type::and_gate, {x, a});
  const node_index g2 = src.add_gate("g2", gate_type::and_gate, {x, b});
  const node_index g3 = src.add_gate("g3", gate_type::or_gate, {x, y});
  src.set_top(src.add_gate("top", gate_type::or_gate, {g1, g2, g3, x}));

  const prep_result prep = preprocess(src);
  expect_same_structure_function(src, prep);
  EXPECT_LT(prep.tree.size(), src.size());
  EXPECT_GT(prep.stats.nodes_eliminated(), 0u);
  const std::vector<cutset> mcs = mapped_to_source(
      prep, mocus(prep.tree, mocus_options{}).cutsets);
  EXPECT_EQ(mcs, (std::vector<cutset>{{x}, {y}}));
}

TEST(Prep, ToSourceMapsBasicEventsFaithfully) {
  const sd_fault_tree sd = testing::make_random_static_tree(0xfeed);
  const fault_tree& src = sd.structure();
  const prep_result prep = preprocess(src);
  std::size_t mapped = 0;
  for (node_index i = 0; i < prep.tree.size(); ++i) {
    if (!prep.tree.is_basic(i)) continue;
    const node_index s = prep.to_source[i];
    ASSERT_NE(s, fault_tree::npos);
    ASSERT_TRUE(src.is_basic(s));
    EXPECT_EQ(prep.tree.node(i).name, src.node(s).name);
    EXPECT_EQ(prep.tree.node(i).probability, src.node(s).probability);
    ++mapped;
  }
  EXPECT_GT(mapped, 0u);
  // Module roots are topological with the top gate last.
  ASSERT_FALSE(prep.module_roots.empty());
  EXPECT_EQ(prep.module_roots.back(), prep.tree.top());
}

/// Engine-level agreement: with prep on and with prep off, several thread
/// counts must produce the bit-identical probability and cutset list.
void expect_engine_agreement(const sd_fault_tree& tree, double horizon,
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

  for (const bool prep_enabled : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      opts.threads = threads;
      opts.prep.enabled = prep_enabled;
      const analysis_result r = analyze(tree, opts);
      const std::string label = model +
                                ": threads=" + std::to_string(threads) +
                                (prep_enabled ? " prep" : " no-prep");
      EXPECT_EQ(testing::engine_cutsets(r), reference_list) << label;
      EXPECT_EQ(r.failure_probability, reference.failure_probability)
          << label;
    }
  }
}

TEST(Prep, EngineAgreementExample3) {
  expect_engine_agreement(testing::example3_sd(), 24.0, 0.0, "example3");
}

TEST(Prep, EngineAgreementRandomSdTrees) {
  for (int seed : {3, 11}) {
    const testing::random_sd_tree r =
        testing::make_random_sd_tree(0x9c + static_cast<std::uint64_t>(seed));
    expect_engine_agreement(r.tree, 12.0, 0.0,
                            "random seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace sdft
