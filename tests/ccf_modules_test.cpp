#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bdd/ft_bdd.hpp"
#include "ft/ccf.hpp"
#include "ft/modules.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sdft {
namespace {

// --- CCF expansion -------------------------------------------------------

/// Two redundant pumps in an AND (system fails when both fail).
struct two_pump {
  fault_tree ft;
  node_index p1, p2;

  explicit two_pump(double q = 1e-2) {
    p1 = ft.add_basic_event("P1", q);
    p2 = ft.add_basic_event("P2", q);
    ft.set_top(ft.add_gate("SYS", gate_type::and_gate, {p1, p2}));
  }
};

TEST(Ccf, BetaFactorExpansionStructure) {
  const two_pump model;
  ccf_group group;
  group.name = "PUMPS";
  group.members = {model.p1, model.p2};
  group.beta = 0.1;
  const fault_tree expanded = expand_ccf(model.ft, {group});
  expanded.validate();

  // The group event appears once, member events became independent parts.
  const node_index ccf = expanded.find("PUMPS_CCF");
  ASSERT_NE(ccf, fault_tree::npos);
  EXPECT_NEAR(expanded.node(ccf).probability, 0.1 * 1e-2, 1e-18);
  const node_index p1i = expanded.find("P1_I");
  ASSERT_NE(p1i, fault_tree::npos);
  EXPECT_NEAR(expanded.node(p1i).probability, 0.9 * 1e-2, 1e-18);

  // {CCF} is now a singleton minimal cutset.
  const auto cutsets = mocus(expanded).cutsets;
  ASSERT_EQ(cutsets.size(), 2u);
  EXPECT_EQ(cutsets[0], cutset{ccf});
}

TEST(Ccf, BetaFactorProbability) {
  const double q = 1e-2;
  const double beta = 0.2;
  const two_pump model(q);
  ccf_group group;
  group.name = "PUMPS";
  group.members = {model.p1, model.p2};
  group.beta = beta;
  const fault_tree expanded = expand_ccf(model.ft, {group});
  // P(both fail) = P(ccf or (i1 and i2))
  //              = b q + (1 - b q) (0.8 q)^2 with b = 0.2.
  const double qi = (1 - beta) * q;
  const double expected = beta * q + (1 - beta * q) * qi * qi;
  EXPECT_NEAR(expanded.probability_brute_force(), expected, 1e-15);
  // And the coupling dominates the independent-only model.
  EXPECT_GT(expanded.probability_brute_force(),
            model.ft.probability_brute_force());
}

TEST(Ccf, AlphaFactorThreeTrainGroup) {
  fault_tree ft;
  const double q = 3e-3;
  const node_index a = ft.add_basic_event("A", q);
  const node_index b = ft.add_basic_event("B", q);
  const node_index c = ft.add_basic_event("C", q);
  ft.set_top(ft.add_gate("SYS", gate_type::and_gate, {a, b, c}));

  ccf_group group;
  group.name = "G";
  group.members = {a, b, c};
  group.model = ccf_group::parametric_model::alpha_factor;
  group.alpha = {0.95, 0.04, 0.01};
  const fault_tree expanded = expand_ccf(ft, {group});
  expanded.validate();

  // Q_k = k / C(n-1, k-1) * alpha_k / alpha_t * q.
  const double alpha_t = 1 * 0.95 + 2 * 0.04 + 3 * 0.01;
  const double q1 = 0.95 / alpha_t * q;
  const double q2 = 2.0 / 2.0 * 0.04 / alpha_t * q;
  const double q3 = 3.0 / 1.0 * 0.01 / alpha_t * q;
  EXPECT_NEAR(expanded.node(expanded.find("A_I")).probability, q1, 1e-15);
  EXPECT_NEAR(expanded.node(expanded.find("G_CCF_A_B")).probability, q2,
              1e-15);
  EXPECT_NEAR(expanded.node(expanded.find("G_CCF_A_B_C")).probability, q3,
              1e-15);
  // Three pairwise events plus the triple event exist.
  EXPECT_NE(expanded.find("G_CCF_A_C"), fault_tree::npos);
  EXPECT_NE(expanded.find("G_CCF_B_C"), fault_tree::npos);
  // The triple event alone fails the 2-out-of-3... here 3-out-of-3 system.
  const auto cutsets = mocus(expanded).cutsets;
  EXPECT_EQ(cutsets.front(), cutset{expanded.find("G_CCF_A_B_C")});
}

TEST(Ccf, BinomialCoefficients) {
  EXPECT_DOUBLE_EQ(binomial(4, 2), 6.0);
  EXPECT_DOUBLE_EQ(binomial(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(binomial(2, 3), 0.0);
}

TEST(Ccf, RejectsIllFormedGroups) {
  const two_pump model;
  ccf_group group;
  group.name = "G";
  group.members = {model.p1};
  EXPECT_THROW(expand_ccf(model.ft, {group}), model_error);  // too small

  group.members = {model.p1, model.p1};
  EXPECT_THROW(expand_ccf(model.ft, {group}), model_error);  // duplicate

  group.members = {model.p1, model.p2};
  group.beta = 1.5;
  EXPECT_THROW(expand_ccf(model.ft, {group}), model_error);  // bad beta

  group.beta = 0.1;
  group.model = ccf_group::parametric_model::alpha_factor;
  group.alpha = {0.5, 0.4};  // does not sum to 1
  EXPECT_THROW(expand_ccf(model.ft, {group}), model_error);
}

TEST(Ccf, RejectsAsymmetricMembers) {
  fault_tree ft;
  const node_index a = ft.add_basic_event("A", 1e-2);
  const node_index b = ft.add_basic_event("B", 2e-2);
  ft.set_top(ft.add_gate("SYS", gate_type::and_gate, {a, b}));
  ccf_group group;
  group.name = "G";
  group.members = {a, b};
  EXPECT_THROW(expand_ccf(ft, {group}), model_error);
}

// --- Modularisation ------------------------------------------------------

TEST(Modules, SharedNodesBreakModules) {
  // g1 contains a node shared with g2: g1 and g2 are not modules, but the
  // top is.
  fault_tree ft;
  const node_index x = ft.add_basic_event("x", 0.1);
  const node_index y = ft.add_basic_event("y", 0.2);
  const node_index z = ft.add_basic_event("z", 0.3);
  const node_index g1 = ft.add_gate("g1", gate_type::or_gate, {x, y});
  const node_index g2 = ft.add_gate("g2", gate_type::or_gate, {y, z});
  const node_index top = ft.add_gate("top", gate_type::and_gate, {g1, g2});
  ft.set_top(top);
  const auto modules = find_modules(ft);
  EXPECT_EQ(modules, std::vector<node_index>{top});
}

TEST(Modules, IndependentSubtreesAreModules) {
  const fault_tree ft = testing::example1_static();
  auto modules = find_modules(ft);
  std::sort(modules.begin(), modules.end());
  // PUMP1, PUMP2, PUMPS and COOLING are all modules (no sharing at all).
  EXPECT_EQ(modules.size(), 4u);
}

TEST(Modules, ExactStaticMatchesBdd) {
  const fault_tree ft = testing::example1_static();
  EXPECT_NEAR(testing::engine_exact_static(ft), ft_bdd(ft).probability(),
              1e-15);
}

TEST(Modules, ExactStaticOnSharedDag) {
  fault_tree ft;
  const node_index x = ft.add_basic_event("x", 0.1);
  const node_index y = ft.add_basic_event("y", 0.2);
  const node_index z = ft.add_basic_event("z", 0.3);
  const node_index g1 = ft.add_gate("g1", gate_type::or_gate, {x, y});
  const node_index g2 = ft.add_gate("g2", gate_type::or_gate, {y, z});
  ft.set_top(ft.add_gate("top", gate_type::and_gate, {g1, g2}));
  EXPECT_NEAR(testing::engine_exact_static(ft), ft.probability_brute_force(),
              1e-15);
}

/// Nine events under seven random gates. With `voting`, a gate drawing
/// three distinct inputs becomes a 2-of-3 atleast gate half of the time;
/// without it no extra draw is made, so the AND/OR seeds are unchanged.
fault_tree random_modular_tree(rng& random, bool voting) {
  fault_tree ft;
  std::vector<node_index> pool;
  for (int i = 0; i < 9; ++i) {
    pool.push_back(ft.add_basic_event("e" + std::to_string(i),
                                      random.uniform(0.05, 0.4)));
  }
  node_index last = fault_tree::npos;
  for (int g = 0; g < 7; ++g) {
    std::vector<node_index> inputs;
    for (int i = 0, n = static_cast<int>(random.between(2, 3)); i < n; ++i) {
      inputs.push_back(pool[random.below(pool.size())]);
    }
    std::vector<node_index> unique_inputs = inputs;
    std::sort(unique_inputs.begin(), unique_inputs.end());
    const auto distinct = std::unique(unique_inputs.begin(),
                                      unique_inputs.end()) -
                          unique_inputs.begin();
    const std::string name = "g" + std::to_string(g);
    if (voting && distinct == 3 && random.chance(0.5)) {
      last = ft.add_atleast_gate(name, 2, inputs);
    } else {
      last = ft.add_gate(name,
                         random.chance(0.5) ? gate_type::and_gate
                                            : gate_type::or_gate,
                         inputs);
    }
    pool.push_back(last);
  }
  ft.set_top(last);
  return ft;
}

class ModularRandomTrees : public ::testing::TestWithParam<int> {};

TEST_P(ModularRandomTrees, MatchesBruteForce) {
  rng random(0x30d + static_cast<std::uint64_t>(GetParam()));
  const fault_tree ft = random_modular_tree(random, /*voting=*/false);
  EXPECT_NEAR(testing::engine_exact_static(ft), ft.probability_brute_force(),
              1e-12);
}

TEST_P(ModularRandomTrees, VotingMatchesBruteForce) {
  rng random(0x30d + static_cast<std::uint64_t>(GetParam()));
  const fault_tree ft = random_modular_tree(random, /*voting=*/true);
  EXPECT_NEAR(testing::engine_exact_static(ft), ft.probability_brute_force(),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModularRandomTrees, ::testing::Range(0, 20));

}  // namespace
}  // namespace sdft
