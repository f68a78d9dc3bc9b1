#include <gtest/gtest.h>

#include <algorithm>

#include "ft/evaluator.hpp"
#include "ft/fault_tree.hpp"
#include "ft/parser.hpp"
#include "test_models.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

TEST(FaultTree, BuildCountsAndLookup) {
  const fault_tree ft = testing::example1_static();
  EXPECT_EQ(ft.num_basic_events(), 5u);
  EXPECT_EQ(ft.num_gates(), 4u);
  EXPECT_EQ(ft.size(), 9u);
  EXPECT_NE(ft.find("PUMP1"), fault_tree::npos);
  EXPECT_EQ(ft.find("nonsense"), fault_tree::npos);
  EXPECT_EQ(ft.node(ft.top()).name, "COOLING");
}

TEST(FaultTree, RejectsDuplicateNames) {
  fault_tree ft;
  ft.add_basic_event("x", 0.1);
  EXPECT_THROW(ft.add_basic_event("x", 0.2), model_error);
  EXPECT_THROW(ft.add_gate("x", gate_type::or_gate), model_error);
}

TEST(FaultTree, RejectsBadProbability) {
  fault_tree ft;
  EXPECT_THROW(ft.add_basic_event("x", -0.1), model_error);
  EXPECT_THROW(ft.add_basic_event("y", 1.1), model_error);
}

TEST(FaultTree, RejectsBasicEventAsTop) {
  fault_tree ft;
  const node_index b = ft.add_basic_event("b", 0.5);
  EXPECT_THROW(ft.set_top(b), model_error);
}

TEST(FaultTree, ValidateRequiresTop) {
  fault_tree ft;
  const node_index b = ft.add_basic_event("b", 0.5);
  ft.add_gate("g", gate_type::or_gate, {b});
  EXPECT_THROW(ft.validate(), model_error);
}

TEST(FaultTree, DetectsCycles) {
  fault_tree ft;
  const node_index b = ft.add_basic_event("b", 0.5);
  const node_index g1 = ft.add_gate("g1", gate_type::or_gate, {b});
  const node_index g2 = ft.add_gate("g2", gate_type::or_gate, {g1});
  ft.add_input(g1, g2);  // cycle g1 -> g2 -> g1
  ft.set_top(g2);
  EXPECT_THROW(ft.validate(), model_error);
}

TEST(FaultTree, DuplicateInputsIgnored) {
  fault_tree ft;
  const node_index b = ft.add_basic_event("b", 0.5);
  const node_index g = ft.add_gate("g", gate_type::and_gate, {b, b});
  EXPECT_EQ(ft.node(g).inputs.size(), 1u);
}

TEST(FaultTree, EvaluateMatchesGateSemantics) {
  const fault_tree ft = testing::example1_static();
  std::vector<char> scenario(ft.size(), 0);
  const node_index a = ft.find("a");
  const node_index d = ft.find("d");

  // {a, d} is a failure scenario (Example 1).
  scenario[a] = scenario[d] = 1;
  EXPECT_TRUE(ft.fails(ft.top(), scenario));

  // {a} alone is not: pump 2 still works.
  scenario[d] = 0;
  EXPECT_FALSE(ft.fails(ft.top(), scenario));

  // {e} alone fails the tank and thus the system.
  scenario[a] = 0;
  scenario[ft.find("e")] = 1;
  EXPECT_TRUE(ft.fails(ft.top(), scenario));
}

TEST(FaultTree, ConstantGates) {
  fault_tree ft;
  const node_index t = ft.add_gate("true_gate", gate_type::and_gate);
  const node_index f = ft.add_gate("false_gate", gate_type::or_gate);
  const node_index top = ft.add_gate("top", gate_type::or_gate, {t, f});
  ft.set_top(top);
  const std::vector<char> scenario(ft.size(), 0);
  EXPECT_TRUE(ft.fails(t, scenario));
  EXPECT_FALSE(ft.fails(f, scenario));
  EXPECT_TRUE(ft.fails(top, scenario));
}

TEST(FaultTree, TopoOrderRespectsDependencies) {
  const fault_tree ft = testing::example1_static();
  const auto order = ft.topo_order();
  EXPECT_EQ(order.size(), ft.size());
  std::vector<std::size_t> position(ft.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (node_index n = 0; n < ft.size(); ++n) {
    for (node_index child : ft.node(n).inputs) {
      EXPECT_LT(position[child], position[n]);
    }
  }
}

TEST(FaultTree, DescendantsOfSharedDag) {
  fault_tree ft;
  const node_index x = ft.add_basic_event("x", 0.1);
  const node_index y = ft.add_basic_event("y", 0.1);
  const node_index shared = ft.add_gate("shared", gate_type::or_gate, {x});
  const node_index g1 = ft.add_gate("g1", gate_type::or_gate, {shared, y});
  const node_index g2 = ft.add_gate("g2", gate_type::or_gate, {shared});
  ft.set_top(ft.add_gate("top", gate_type::and_gate, {g1, g2}));

  auto desc = ft.descendants(g2);
  std::sort(desc.begin(), desc.end());
  EXPECT_EQ(desc, (std::vector<node_index>{x, shared, g2}));
}

TEST(FaultTree, BruteForceMatchesExample1) {
  const fault_tree ft = testing::example1_static();
  // p(FT) = 1 - (1-p_e) * (1 - p_pump1 * p_pump2) where
  // p_pump = 1 - (1-p_fts)(1-p_fio).
  const double p_pump =
      1.0 - (1.0 - testing::p_fts) * (1.0 - testing::p_fio);
  const double expected =
      1.0 - (1.0 - testing::p_tank) * (1.0 - p_pump * p_pump);
  EXPECT_NEAR(ft.probability_brute_force(), expected, 1e-15);
}

TEST(FaultTree, ScenarioProbabilityOfExample1) {
  // p({a, d}) from Example 1: a and d fail, everything else works.
  const double p = testing::p_fts * testing::p_fio *
                   (1 - testing::p_fio) * (1 - testing::p_fts) *
                   (1 - testing::p_tank);
  EXPECT_NEAR(p, 2.988e-6, 5e-9);
}

TEST(Evaluator, MatchesFaultTreeEvaluate) {
  const fault_tree ft = testing::example1_static();
  const subtree_evaluator eval(ft, {ft.top()});
  std::vector<char> scenario(ft.size(), 0);
  scenario[ft.find("b")] = 1;
  scenario[ft.find("c")] = 1;
  std::vector<char> out(ft.size(), 0);
  eval.evaluate(scenario, out);
  const auto expected = ft.evaluate(scenario);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
  EXPECT_TRUE(out[ft.top()]);
}

TEST(Parser, RoundTripsExample1) {
  const fault_tree ft = testing::example1_static();
  const std::string text = write_fault_tree(ft);
  const fault_tree parsed = parse_fault_tree_string(text);
  EXPECT_EQ(parsed.num_basic_events(), ft.num_basic_events());
  EXPECT_EQ(parsed.num_gates(), ft.num_gates());
  EXPECT_EQ(parsed.node(parsed.top()).name, "COOLING");
  EXPECT_NEAR(parsed.probability_brute_force(),
              ft.probability_brute_force(), 1e-18);
}

TEST(Parser, SupportsForwardReferencesAndComments) {
  const fault_tree ft = parse_fault_tree_string(
      "# tiny model\n"
      "top sys\n"
      "or sys g1 x  # trailing comment\n"
      "and g1 y z\n"
      "be x 0.1\n"
      "be y 0.2\n"
      "be z 0.3\n");
  EXPECT_EQ(ft.num_basic_events(), 3u);
  EXPECT_NEAR(ft.probability_brute_force(), 1 - (1 - .1) * (1 - .2 * .3),
              1e-15);
}

TEST(Parser, ReportsLineNumbers) {
  try {
    parse_fault_tree_string("be x 0.1\nbe y nonsense\n");
    FAIL() << "expected parse error";
  } catch (const model_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsUndefinedChildAndMissingTop) {
  EXPECT_THROW(parse_fault_tree_string("or g missing\ntop g\n"), model_error);
  EXPECT_THROW(parse_fault_tree_string("be x 0.1\n"), model_error);
  EXPECT_THROW(parse_fault_tree_string("be x 0.1\nor g x\ntop x\n"),
               model_error);
}

}  // namespace
}  // namespace sdft
