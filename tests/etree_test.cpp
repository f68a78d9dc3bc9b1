#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "engine/engine.hpp"
#include "etree/event_tree.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

/// A two-function event tree over a small fault tree:
///   IE, then HP (high-pressure injection), then LP (low-pressure).
/// Sequences: HP ok -> OK; HP fails, LP ok -> OK; both fail -> CD.
class et_fixture {
 public:
  fault_tree ft;
  node_index ie, hp_gate, lp_gate;

  et_fixture() {
    ie = ft.add_basic_event("IE", 1e-2);
    const node_index hp_pump = ft.add_basic_event("HP_PUMP", 2e-2);
    const node_index hp_valve = ft.add_basic_event("HP_VALVE", 1e-2);
    const node_index lp_pump = ft.add_basic_event("LP_PUMP", 3e-2);
    const node_index shared = ft.add_basic_event("SHARED_SIGNAL", 5e-3);
    hp_gate = ft.add_gate("HP_F", gate_type::or_gate,
                          {hp_pump, hp_valve, shared});
    lp_gate = ft.add_gate("LP_F", gate_type::or_gate, {lp_pump, shared});
    ft.set_top(ft.add_gate("ANY", gate_type::or_gate, {hp_gate, lp_gate}));

    et_.emplace(ft, ie, "DEMO");
    et_->add_functional_event("HP", hp_gate);
    et_->add_functional_event("LP", lp_gate);
    et_->add_sequence({branch_outcome::success, branch_outcome::bypass},
                      "OK");
    et_->add_sequence({branch_outcome::failure, branch_outcome::success},
                      "OK");
    et_->add_sequence({branch_outcome::failure, branch_outcome::failure},
                      "CD");
    et_->validate();
  }

  const event_tree& et() const { return *et_; }

 private:
  std::optional<event_tree> et_;
};

TEST(EventTree, ValidationCatchesMistakes) {
  fault_tree ft;
  const node_index b = ft.add_basic_event("b", 0.1);
  const node_index g = ft.add_gate("g", gate_type::or_gate, {b});
  ft.set_top(g);
  EXPECT_THROW(event_tree(ft, g), model_error);  // IE must be basic

  event_tree et(ft, b);
  EXPECT_THROW(et.add_functional_event("F", b), model_error);  // not a gate
  et.add_functional_event("F", g);
  EXPECT_THROW(et.add_sequence({}, "CD"), model_error);  // arity mismatch
  et.add_sequence({branch_outcome::failure}, "CD");
  et.add_sequence({branch_outcome::failure}, "CD2");
  EXPECT_THROW(et.validate(), model_error);  // duplicate outcomes
}

TEST(EventTree, ExactEntryPointsValidateFirst) {
  // The *_exact entry points must run the full validation themselves: an
  // event tree with duplicate sequence outcomes used to sail straight into
  // compilation and return a number for a malformed model.
  fault_tree ft;
  const node_index b = ft.add_basic_event("b", 0.1);
  const node_index g = ft.add_gate("g", gate_type::or_gate, {b});
  ft.set_top(g);
  event_tree et(ft, b);
  et.add_functional_event("F", g);
  et.add_sequence({branch_outcome::failure}, "CD");
  et.add_sequence({branch_outcome::failure}, "CD2");  // duplicate outcomes
  EXPECT_THROW(sequence_probability_exact(et, 0), model_error);
  EXPECT_THROW(end_state_probability_exact(et, "CD"), model_error);
  EXPECT_THROW(end_state_fault_tree(et, "CD"), model_error);
}

TEST(EventTree, AtleastFunctionalEventIsExact) {
  // Regression: et_bdd::compile used to lower atleast gates as plain ORs,
  // corrupting every sequence probability under a k-of-n functional event.
  // A 2-of-3 vote separates the two readings decisively: P(>=2 of 3) =
  // 0.098 here, while the OR reading gives 1 - 0.9*0.8*0.7 = 0.496.
  fault_tree ft;
  const node_index ie = ft.add_basic_event("IE", 0.5);
  const node_index a = ft.add_basic_event("A", 0.1);
  const node_index b = ft.add_basic_event("B", 0.2);
  const node_index c = ft.add_basic_event("C", 0.3);
  const node_index vote = ft.add_atleast_gate("VOTE", 2, {a, b, c});
  ft.set_top(vote);

  event_tree et(ft, ie, "V");
  et.add_functional_event("V", vote);
  et.add_sequence({branch_outcome::failure}, "CD");
  et.add_sequence({branch_outcome::success}, "OK");

  const double p2of3 = 0.1 * 0.2 * 0.7 + 0.1 * 0.8 * 0.3 + 0.9 * 0.2 * 0.3 +
                       0.1 * 0.2 * 0.3;
  EXPECT_NEAR(sequence_probability_exact(et, 0), 0.5 * p2of3, 1e-15);
  // The negated branch must be exact too (1 - p over the same BDD).
  EXPECT_NEAR(sequence_probability_exact(et, 1), 0.5 * (1.0 - p2of3), 1e-15);
  EXPECT_NEAR(end_state_probability_exact(et, "CD") +
                  end_state_probability_exact(et, "OK"),
              0.5, 1e-15);
}

TEST(EventTree, EndStateFaultTreeDedupsSynthesizedNames) {
  // Regression: a model that already contains nodes named like the
  // synthesized sequence/top gates ("<et>::SEQ<k>", "<et>::<end state>")
  // used to make end_state_fault_tree emit duplicate names.
  fault_tree ft;
  const node_index ie = ft.add_basic_event("IE", 1e-2);
  const node_index trap_seq = ft.add_basic_event("ET::SEQ0", 1e-3);
  const node_index trap_top = ft.add_basic_event("ET::CD", 2e-3);
  const node_index g =
      ft.add_gate("G_F", gate_type::or_gate, {trap_seq, trap_top});
  ft.set_top(ft.add_gate("ANY", gate_type::or_gate, {g}));

  event_tree et(ft, ie, "ET");
  et.add_functional_event("G", g);
  et.add_sequence({branch_outcome::failure}, "CD");

  const fault_tree cd = end_state_fault_tree(et, "CD");
  // The pre-existing events keep their names; the synthesized gates moved
  // to deduplicated ones — and the result still validates and quantifies.
  EXPECT_NE(cd.find("ET::SEQ0"), fault_tree::npos);
  EXPECT_TRUE(cd.is_basic(cd.find("ET::SEQ0")));
  EXPECT_NE(cd.find("ET::SEQ0#2"), fault_tree::npos);
  EXPECT_NE(cd.find("ET::CD#2"), fault_tree::npos);
  const double p_or = 1.0 - (1.0 - 1e-3) * (1.0 - 2e-3);
  EXPECT_NEAR(cd.probability_brute_force(), 1e-2 * p_or, 1e-15);
}

TEST(EventTree, SequenceProbabilityExact) {
  const et_fixture fx;
  // P(CD sequence) = p(IE) * P(HP_F and LP_F), with the shared signal
  // coupling the two functions.
  const double p_hp_pump = 2e-2, p_hp_valve = 1e-2, p_lp = 3e-2, p_sig = 5e-3;
  // P(HP and LP) = P(sig) + (1-P(sig)) * P(hp fails w/o sig) * P(lp w/o sig)
  const double hp_local = 1 - (1 - p_hp_pump) * (1 - p_hp_valve);
  const double both = p_sig + (1 - p_sig) * hp_local * p_lp;
  EXPECT_NEAR(sequence_probability_exact(fx.et(), 2), 1e-2 * both, 1e-12);
}

TEST(EventTree, SuccessBranchesAreExact) {
  const et_fixture fx;
  // Sequence 1 = IE and HP fails and LP succeeds.
  const double p2 = sequence_probability_exact(fx.et(), 2);
  const double p1 = sequence_probability_exact(fx.et(), 1);
  const double p0 = sequence_probability_exact(fx.et(), 0);
  // The three sequences partition {IE occurs}: probabilities sum to p(IE).
  EXPECT_NEAR(p0 + p1 + p2, 1e-2, 1e-12);
}

TEST(EventTree, EndStateAggregation) {
  const et_fixture fx;
  EXPECT_NEAR(end_state_probability_exact(fx.et(), "CD"),
              sequence_probability_exact(fx.et(), 2), 1e-15);
  EXPECT_NEAR(end_state_probability_exact(fx.et(), "OK"),
              sequence_probability_exact(fx.et(), 0) +
                  sequence_probability_exact(fx.et(), 1),
              1e-15);
  EXPECT_DOUBLE_EQ(end_state_probability_exact(fx.et(), "NONSENSE"), 0.0);
}

TEST(EventTree, EndStateFaultTreeIsConservative) {
  const et_fixture fx;
  const fault_tree cd = end_state_fault_tree(fx.et(), "CD");
  cd.validate();
  // The coherent tree drops success terms, so its probability dominates
  // the exact sequence quantification.
  const double coherent = cd.probability_brute_force();
  const double exact = end_state_probability_exact(fx.et(), "CD");
  EXPECT_GE(coherent, exact - 1e-15);
  // For this tree (CD has no success branches) they coincide.
  EXPECT_NEAR(coherent, exact, 1e-12);
  // MCS of the CD tree: {IE, sig}, {IE, hp_pump, lp}, {IE, hp_valve, lp}.
  EXPECT_EQ(mocus(cd).cutsets.size(), 3u);
}

TEST(EventTree, EndStateFaultTreeDropsSuccessTerms) {
  const et_fixture fx;
  const fault_tree ok = end_state_fault_tree(fx.et(), "OK");
  // Sequence 0 keeps only the IE (HP success dropped); the coherent OK
  // probability is then just p(IE), above the exact OK probability.
  EXPECT_NEAR(ok.probability_brute_force(), 1e-2, 1e-12);
  EXPECT_LT(end_state_probability_exact(fx.et(), "OK"), 1e-2);
}

TEST(EventTree, DemandTriggersFollowFunctionOrder) {
  // SD variant: both functions have an untriggered dynamic pump event.
  sd_fault_tree tree;
  const node_index ie = tree.add_static_event("IE", 1e-2);
  const node_index hp_fio =
      tree.add_dynamic_event("HP_FIO", make_repairable(1e-3, 0.0));
  const node_index lp_fio =
      tree.add_dynamic_event("LP_FIO", make_repairable(1e-3, 0.0));
  const node_index hp =
      tree.add_gate("HP_F", gate_type::or_gate, {hp_fio});
  const node_index lp =
      tree.add_gate("LP_F", gate_type::or_gate, {lp_fio});
  tree.set_top(tree.add_gate("TOP", gate_type::and_gate, {ie, hp, lp}));
  tree.validate();

  event_tree et(tree.structure(), ie, "SD");
  et.add_functional_event("HP", hp);
  et.add_functional_event("LP", lp);
  et.add_sequence({branch_outcome::failure, branch_outcome::failure}, "CD");
  et.add_sequence({branch_outcome::failure, branch_outcome::success}, "OK");
  et.add_sequence({branch_outcome::success, branch_outcome::bypass}, "OK");

  const auto suggestions = suggest_demand_triggers(et, tree);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions[0].trigger_gate, hp);
  EXPECT_EQ(suggestions[0].events, std::vector<node_index>{lp_fio});
}

TEST(EventTree, DemandTriggersSkipSharedEvents) {
  // A dynamic event under BOTH functions must not be suggested (it would
  // create a trigger cycle).
  sd_fault_tree tree;
  const node_index ie = tree.add_static_event("IE", 1e-2);
  const node_index shared =
      tree.add_dynamic_event("SHARED", make_repairable(1e-3, 0.0));
  const node_index hp =
      tree.add_gate("HP_F", gate_type::or_gate, {shared});
  const node_index lp =
      tree.add_gate("LP_F", gate_type::or_gate, {shared});
  tree.set_top(tree.add_gate("TOP", gate_type::and_gate, {ie, hp, lp}));

  event_tree et(tree.structure(), ie, "SD");
  et.add_functional_event("HP", hp);
  et.add_functional_event("LP", lp);
  et.add_sequence({branch_outcome::failure, branch_outcome::failure}, "CD");

  EXPECT_TRUE(suggest_demand_triggers(et, tree).empty());
}

}  // namespace
}  // namespace sdft
