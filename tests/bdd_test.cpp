#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "bdd/ft_bdd.hpp"
#include "bdd/ft_compiler.hpp"
#include "etree/event_tree.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sdft {
namespace {

TEST(Bdd, TerminalAndVarBasics) {
  bdd_manager m;
  EXPECT_NE(m.zero(), m.one());
  const bdd_ref x = m.var(0);
  EXPECT_EQ(m.var(0), x);  // unique table canonicalises
  EXPECT_EQ(m.bdd_and(x, m.one()), x);
  EXPECT_EQ(m.bdd_and(x, m.zero()), m.zero());
  EXPECT_EQ(m.bdd_or(x, m.zero()), x);
  EXPECT_EQ(m.bdd_or(x, m.one()), m.one());
}

TEST(Bdd, AndOrAreCanonical) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  EXPECT_EQ(m.bdd_and(x, y), m.bdd_and(y, x));
  EXPECT_EQ(m.bdd_or(x, y), m.bdd_or(y, x));
  // Distributivity: x & (y | x) == x.
  EXPECT_EQ(m.bdd_and(x, m.bdd_or(y, x)), x);
}

TEST(Bdd, NotIsInvolutive) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  const bdd_ref f = m.bdd_or(m.bdd_and(x, y), m.bdd_not(y));
  EXPECT_EQ(m.bdd_not(m.bdd_not(f)), f);
  EXPECT_EQ(m.bdd_or(f, m.bdd_not(f)), m.one());
  EXPECT_EQ(m.bdd_and(f, m.bdd_not(f)), m.zero());
}

TEST(Bdd, RestrictFixesVariables) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  const bdd_ref f = m.bdd_and(x, y);
  EXPECT_EQ(m.restrict_var(f, 0, true), y);
  EXPECT_EQ(m.restrict_var(f, 0, false), m.zero());
  EXPECT_EQ(m.restrict_var(f, 1, true), x);
}

TEST(Bdd, ProbabilityShannon) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  const std::vector<double> p{0.3, 0.5};
  EXPECT_NEAR(m.probability(m.bdd_and(x, y), p), 0.15, 1e-15);
  EXPECT_NEAR(m.probability(m.bdd_or(x, y), p), 0.65, 1e-15);
  EXPECT_NEAR(m.probability(m.one(), p), 1.0, 1e-15);
  EXPECT_NEAR(m.probability(m.zero(), p), 0.0, 1e-15);
}

TEST(Bdd, MinimalSolutionsOfRedundantFunction) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  // f = x | (x & y): the only minimal solution is {x}.
  const bdd_ref f = m.bdd_or(x, m.bdd_and(x, y));
  const auto products = m.enumerate_products(m.minimal_solutions(f));
  ASSERT_EQ(products.size(), 1u);
  EXPECT_EQ(products[0], (std::vector<std::uint32_t>{0}));
}

TEST(FtBdd, ExactProbabilityMatchesBruteForce) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd compiled(ft);
  EXPECT_NEAR(compiled.probability(), ft.probability_brute_force(), 1e-15);
}

TEST(FtBdd, ProbabilityWithOverrides) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd compiled(ft);
  // Setting the tank to certainty makes the system fail with certainty.
  EXPECT_NEAR(compiled.probability({{ft.find("e"), 1.0}}), 1.0, 1e-15);
  // Setting it to zero leaves only the pump contribution.
  const double p_pump =
      1.0 - (1.0 - testing::p_fts) * (1.0 - testing::p_fio);
  EXPECT_NEAR(compiled.probability({{ft.find("e"), 0.0}}), p_pump * p_pump,
              1e-15);
}

TEST(FtBdd, MinimalCutsetsMatchMocus) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd compiled(ft);
  EXPECT_EQ(compiled.minimal_cutsets(), mocus(ft).cutsets);
}

TEST(FtBdd, CompilesFromSubtreeRoot) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd pump1(ft, ft.find("PUMP1"));
  const double expected =
      1.0 - (1.0 - testing::p_fts) * (1.0 - testing::p_fio);
  EXPECT_NEAR(pump1.probability(), expected, 1e-15);
}

/// With `voting`, a gate drawing n >= 3 distinct inputs becomes a k-of-n
/// atleast gate (2 <= k < n) half of the time. Without it no extra draw is
/// made, so the AND/OR trees of every seed stay as they were.
fault_tree random_tree(rng& random, int num_events, int num_gates,
                       bool voting = false) {
  fault_tree ft;
  std::vector<node_index> pool;
  for (int i = 0; i < num_events; ++i) {
    pool.push_back(ft.add_basic_event("e" + std::to_string(i),
                                      random.uniform(0.05, 0.4)));
  }
  node_index last = fault_tree::npos;
  for (int g = 0; g < num_gates; ++g) {
    std::vector<node_index> inputs;
    for (int i = 0, n = static_cast<int>(random.between(2, 4)); i < n; ++i) {
      inputs.push_back(pool[random.below(pool.size())]);
    }
    std::vector<node_index> unique_inputs = inputs;
    std::sort(unique_inputs.begin(), unique_inputs.end());
    const auto distinct = std::unique(unique_inputs.begin(),
                                      unique_inputs.end()) -
                          unique_inputs.begin();
    const std::string name = "g" + std::to_string(g);
    if (voting && distinct >= 3 && random.chance(0.5)) {
      last = ft.add_atleast_gate(
          name, static_cast<std::uint32_t>(random.between(2, distinct - 1)),
          inputs);
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

class BddRandomTrees : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomTrees, AgreesWithBruteForceAndMocus) {
  rng random(0xb00 + static_cast<std::uint64_t>(GetParam()));
  const fault_tree ft = random_tree(random, 9, 7);
  const ft_bdd compiled(ft);
  EXPECT_NEAR(compiled.probability(), ft.probability_brute_force(), 1e-12);
  EXPECT_EQ(compiled.minimal_cutsets(), mocus(ft).cutsets);
}

// mocus() rejects atleast gates, so the voting trees are checked against
// brute force only.
TEST_P(BddRandomTrees, VotingAgreesWithBruteForce) {
  rng random(0xb00 + static_cast<std::uint64_t>(GetParam()));
  const fault_tree ft = random_tree(random, 9, 7, /*voting=*/true);
  EXPECT_NEAR(ft_bdd(ft).probability(), ft.probability_brute_force(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTrees, ::testing::Range(0, 25));

/// The per-root recursive evaluation that bdd_plan replaced (one
/// std::function recursion with its own memo per root), kept as the
/// differential oracle for the plan kernel.
double probability_reference(const bdd_manager& m, bdd_ref f,
                             const std::vector<double>& probs) {
  std::unordered_map<bdd_ref, double> memo;
  const std::function<double(bdd_ref)> rec = [&](bdd_ref g) -> double {
    if (g == m.zero()) return 0.0;
    if (g == m.one()) return 1.0;
    auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    const std::uint32_t v = m.top_var(g);
    require_model(v < probs.size(), "bdd: probability vector too small");
    const double p =
        probs[v] * rec(m.high(g)) + (1.0 - probs[v]) * rec(m.low(g));
    memo.emplace(g, p);
    return p;
  };
  return rec(f);
}

/// Compiles every gate of `ft` (and its negation) into `m`, the i-th basic
/// event of the tree on variable i — several trees compiled into one
/// manager share their variables and hence their nodes. Returns the roots in gate
/// order, so later roots have earlier ones as descendants.
std::vector<bdd_ref> compile_gates(bdd_manager& m, const fault_tree& ft) {
  std::vector<bdd_ref> ref(ft.size(), m.zero());
  std::vector<bdd_ref> roots;
  std::uint32_t next_var = 0;
  for (node_index n = 0; n < ft.size(); ++n) {
    if (ft.is_basic(n)) {
      ref[n] = m.var(next_var++);
      continue;
    }
    const bool is_and = ft.node(n).type == gate_type::and_gate;
    bdd_ref f = is_and ? m.one() : m.zero();
    for (node_index child : ft.node(n).inputs) {
      f = is_and ? m.bdd_and(f, ref[child]) : m.bdd_or(f, ref[child]);
    }
    ref[n] = f;
    roots.push_back(f);
    roots.push_back(m.bdd_not(f));
  }
  return roots;
}

class BddPlanDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BddPlanDifferential, MatchesRecursiveReferenceBitForBit) {
  rng random(0x91a + static_cast<std::uint64_t>(GetParam()));
  bdd_manager m;
  std::vector<bdd_ref> roots;
  for (int t = 0; t < 3; ++t) {
    const fault_tree ft = random_tree(random, 10, 12);
    const auto tree_roots = compile_gates(m, ft);
    roots.insert(roots.end(), tree_roots.begin(), tree_roots.end());
  }
  // Duplicates and both terminals ride along in the multi-root set.
  roots.push_back(roots.front());
  roots.push_back(roots[roots.size() / 2]);
  roots.push_back(m.zero());
  roots.push_back(m.one());

  std::vector<double> probs(10);
  for (double& p : probs) p = random.uniform(0.0, 1.0);

  const bdd_plan plan(m, roots);
  std::vector<double> out;
  plan.evaluate(probs, out);
  ASSERT_EQ(out.size(), roots.size());
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const double expected = probability_reference(m, roots[r], probs);
    EXPECT_EQ(out[r], expected) << "root " << r << " in the multi-root plan";
    EXPECT_EQ(m.probability(roots[r], probs), expected)
        << "root " << r << " as a one-root plan";
  }
  EXPECT_EQ(out[roots.size() - 2], 0.0);
  EXPECT_EQ(out[roots.size() - 1], 1.0);
  // A one-root plan visits exactly the nodes reachable from it.
  EXPECT_EQ(bdd_plan(m, {roots.front()}).size(), m.live_nodes(roots.front()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddPlanDifferential, ::testing::Range(0, 20));

TEST(BddPlan, ShortProbabilityVectorThrows) {
  bdd_manager m;
  const bdd_ref f = m.bdd_and(m.var(0), m.var(4));
  const std::vector<double> probs{0.5, 0.5, 0.5};
  std::vector<double> out;
  EXPECT_THROW(bdd_plan(m, {f}).evaluate(probs, out), error);
  EXPECT_THROW((void)m.probability(f, probs), error);
  // Only variables reachable from the roots count.
  EXPECT_EQ(m.probability(m.var(1), probs), 0.5);
  bdd_plan(m, {m.zero(), m.one()}).evaluate({}, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 1.0}));
}

TEST(BddPlan, FreezeReleasesTheManager) {
  bdd_manager m;
  const bdd_ref f = m.bdd_or(m.var(0), m.bdd_and(m.var(1), m.var(2)));
  const std::vector<double> probs{0.1, 0.2, 0.3};
  const double expected = probability_reference(m, f, probs);
  const bdd_plan plan = std::move(m).freeze({f, f});
  EXPECT_EQ(m.size(), 2u);  // back to the two terminals
  std::vector<double> out;
  plan.evaluate(probs, out);
  EXPECT_EQ(out, (std::vector<double>{expected, expected}));
}

TEST(FtCompiler, DfsLeavesVisitsEachGateOnce) {
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  const node_index b = ft.add_basic_event("b", 0.2);
  const node_index c = ft.add_basic_event("c", 0.3);
  const node_index shared = ft.add_gate("shared", gate_type::and_gate, {c, b});
  const node_index left = ft.add_gate("left", gate_type::or_gate, {shared, a});
  const node_index top =
      ft.add_gate("top", gate_type::or_gate, {left, shared, b});
  ft.set_top(top);
  EXPECT_EQ(dfs_leaves(ft, {top}), (std::vector<node_index>{c, b, a}));
  // Roots in order; a root already met below an earlier one adds nothing.
  EXPECT_EQ(dfs_leaves(ft, {a, shared, top}),
            (std::vector<node_index>{a, c, b}));
  // A flagged gate is a leaf below the root, but the root itself expands.
  std::vector<bool> stop(ft.size(), false);
  stop[shared] = stop[left] = true;
  EXPECT_EQ(dfs_leaves(ft, {top}, stop),
            (std::vector<node_index>{left, shared, b}));
  EXPECT_EQ(dfs_leaves(ft, {left}, stop),
            (std::vector<node_index>{shared, a}));
}

TEST(FtCompiler, MemoisesGatesAndRejectsLeavesWithoutVariable) {
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  const node_index b = ft.add_basic_event("b", 0.2);
  const node_index both = ft.add_gate("both", gate_type::and_gate, {a, b});
  const node_index top = ft.add_gate("top", gate_type::or_gate, {both, a});
  ft.set_top(top);
  bdd_manager m;
  ft_compiler compiler(ft, m, {a, b});
  const bdd_ref f = compiler.compile(top);
  EXPECT_EQ(f, m.var(0));  // a OR (a AND b) absorbs to a
  EXPECT_EQ(compiler.compile(top), f);
  (void)compiler.compile(both);
  EXPECT_EQ(compiler.gates_compiled(), 2u);

  bdd_manager m2;
  ft_compiler partial(ft, m2, {a});
  EXPECT_THROW((void)partial.compile(top), error);
}

/// g_0 = e_0, g_i = OR(g_{i-1}, AND(g_{i-1}, e_i)): 2^depth root-to-leaf
/// paths in a DAG of 3 * depth + 1 nodes. Absorption reduces the top to
/// e_0, so every exact probability is e_0's, bit for bit.
TEST(FtCompiler, LadderDagCompilesInLinearTime) {
  constexpr int depth = 64;
  fault_tree ft;
  const node_index e0 = ft.add_basic_event("e0", 0.1);
  node_index g = e0;
  for (int i = 1; i <= depth; ++i) {
    const node_index e = ft.add_basic_event("e" + std::to_string(i), 0.5);
    const node_index both = ft.add_gate("a" + std::to_string(i),
                                        gate_type::and_gate, {g, e});
    g = ft.add_gate("g" + std::to_string(i), gate_type::or_gate, {g, both});
  }
  ft.set_top(g);
  const double expected = ft.node(e0).probability;

  EXPECT_EQ(ft_bdd(ft).probability(), expected);

  // The ladder as a functional event after initiating event e_0: the
  // failure branch is e_0 AND e_0.
  event_tree et(ft, e0);
  et.add_functional_event("LADDER", g);
  et.add_sequence({branch_outcome::failure}, "CD");
  et.add_sequence({branch_outcome::success}, "OK");
  EXPECT_EQ(sequence_probability_exact(et, 0), expected);
  EXPECT_EQ(sequence_probability_exact(et, 1), 0.0);
}

}  // namespace
}  // namespace sdft
