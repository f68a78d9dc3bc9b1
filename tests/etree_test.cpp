#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "etree/event_tree.hpp"
#include "etree/scenario.hpp"
#include "gen/industrial.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

/// The constructions that event_tree_bdd replaced, kept as its oracles in
/// the compilation's own manager.
struct event_tree_bdd_test_access {
  /// The sequence construction before suffix products: the top-down
  /// product ((IE ∧ ±G_0) ∧ ±G_1) ∧ …, bypass outcomes skipped.
  static bdd_ref prefix_fold(event_tree_bdd& compiled, std::size_t s) {
    const event_tree& et = compiled.et_;
    bdd_ref f = compiled.compiler_.compile(et.initiating_event());
    const auto& outcomes = et.sequence_outcomes(s);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i] == branch_outcome::bypass) continue;
      const bdd_ref gate = compiled.compiler_.compile(et.functional_gate(i));
      f = compiled.manager_.bdd_and(
          f, outcomes[i] == branch_outcome::failure
                 ? gate
                 : compiled.manager_.bdd_not(gate));
    }
    return f;
  }
  /// The end-state construction before the sequence trie: a left fold of
  /// bdd_or over the sequence roots.
  static bdd_ref fold(event_tree_bdd& compiled, const std::string& end_state) {
    bdd_ref any = compiled.manager_.zero();
    for (std::size_t s = 0; s < compiled.et_.num_sequences(); ++s) {
      if (compiled.et_.end_state(s) == end_state) {
        any = compiled.manager_.bdd_or(any, compiled.sequence(s));
      }
    }
    return any;
  }
  static bdd_ref zero(const event_tree_bdd& compiled) {
    return compiled.manager_.zero();
  }
};

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

/// validate()'s model_error message, or "" if `et` validates.
std::string validation_error(const event_tree& et) {
  try {
    et.validate();
  } catch (const model_error& e) {
    return e.what();
  }
  return "";
}

TEST(EventTree, ValidationRejectsSequencesShorterThanTheTree) {
  // add_sequence checks a sequence against the functional events declared
  // so far. One declared afterwards used to leave the older sequences
  // short: validate() accepted them and sequence() ignored the new event.
  fault_tree ft;
  const node_index ie = ft.add_basic_event("IE", 0.1);
  const node_index b = ft.add_basic_event("b", 0.2);
  const node_index g = ft.add_gate("g", gate_type::or_gate, {b});
  ft.set_top(g);
  event_tree et(ft, ie);
  et.add_functional_event("F", g);
  et.add_sequence({branch_outcome::failure}, "CD");
  EXPECT_EQ(validation_error(et), "");
  et.add_functional_event("G", g);
  et.add_sequence({branch_outcome::success, branch_outcome::failure}, "OK");
  EXPECT_EQ(validation_error(et),
            "event_tree: sequence must cover every functional event");
  EXPECT_THROW(sequence_probability_exact(et, 1), model_error);
  EXPECT_THROW(end_state_probability_exact(et, "OK"), model_error);
}

TEST(EventTree, ValidationFindsDistantDuplicate) {
  // 2^10 distinct sequences, then a copy of one from the middle appended
  // 700 places after its twin: sorted, the two are neighbours.
  fault_tree ft;
  const node_index ie = ft.add_basic_event("IE", 0.1);
  const node_index g =
      ft.add_gate("g", gate_type::or_gate, {ft.add_basic_event("b", 0.2)});
  ft.set_top(g);
  constexpr std::size_t events = 10;
  event_tree et(ft, ie);
  for (std::size_t i = 0; i < events; ++i) {
    et.add_functional_event("F" + std::to_string(i), g);
  }
  const auto outcomes = [](std::size_t mask) {
    std::vector<branch_outcome> out;
    for (std::size_t i = 0; i < events; ++i) {
      out.push_back((mask >> i) & 1u ? branch_outcome::failure
                                     : branch_outcome::bypass);
    }
    return out;
  };
  for (std::size_t mask = 0; mask < (std::size_t{1} << events); ++mask) {
    et.add_sequence(outcomes(mask), mask % 3 == 0 ? "CD" : "OK");
  }
  EXPECT_EQ(validation_error(et), "");
  et.add_sequence(outcomes(324), "DUP");
  EXPECT_EQ(validation_error(et), "event_tree: duplicate sequence outcomes");
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

/// In one compilation of `et`, every end state in `names` built on the
/// sequence trie is the fold's own node.
void expect_trie_equals_fold(const event_tree& et,
                             const std::vector<std::string>& names,
                             const std::string& label) {
  event_tree_bdd compiled(et);
  for (const std::string& name : names) {
    const bdd_ref trie = compiled.end_state(name);
    EXPECT_EQ(trie, event_tree_bdd_test_access::fold(compiled, name))
        << label << " " << name;
  }
}

scenario_model load_plant() {
  std::ifstream in(std::string(SDFT_DATA_DIR) + "/plant.etree");
  return parse_scenario(in);
}

TEST(EventTreeBdd, TrieEndStateEqualsFold) {
  // A BDD is canonical within its manager, so the trie's distributed form
  // of the sequence union must land on the fold's node — for the CCF-
  // expanded plant tree and for random trees with bypass outcomes and
  // incomplete sequence sets (some reach only one of CD and OK).
  scenario_options opts;
  opts.quantify_cutsets = false;
  opts.analysis.publish_metrics = false;
  const scenario_engine plant(load_plant(), opts);
  expect_trie_equals_fold(plant.compiled_event_tree(), {"OK", "CD"}, "plant");
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fault_tree ft = testing::make_random_static_tree(seed, 10, 6).structure();
    const event_tree et = testing::make_random_event_tree(seed, ft);
    expect_trie_equals_fold(et, {"CD", "OK"}, "seed " + std::to_string(seed));
  }

  // An end state no sequence reaches is the zero terminal.
  const et_fixture fx;
  event_tree_bdd compiled(fx.et());
  EXPECT_EQ(compiled.end_state("NONSENSE"),
            event_tree_bdd_test_access::zero(compiled));
  expect_trie_equals_fold(fx.et(), {"NONSENSE", "OK", "CD"}, "fixture");
}

/// The tree's own basic-event probabilities, indexed by node.
std::vector<double> node_probs(const fault_tree& ft) {
  std::vector<double> p(ft.size(), 0.0);
  for (node_index n = 0; n < ft.size(); ++n) {
    if (ft.is_basic(n)) p[n] = ft.node(n).probability;
  }
  return p;
}

/// The bench-size industrial model 1 (seed 1).
fault_tree industrial_model1() {
  industrial_options o;
  o.seed = 1;
  o.num_frontline_systems = 18;
  o.num_support_systems = 5;
  o.num_initiating_events = 10;
  o.sequences_per_ie = 6;
  o.components_per_train = 5;
  return generate_industrial(o).ft;
}

/// Nine front-line systems of `ft` as functional events, all 512
/// success/failure sequences, CD on two or more failures.
event_tree industrial_event_tree(const fault_tree& ft) {
  constexpr int systems = 9;
  event_tree et(ft, ft.find("IE0"), "IND");
  for (int k = 0; k < systems; ++k) {
    et.add_functional_event("F" + std::to_string(k),
                            ft.find("SYS" + std::to_string(k) + "_F"));
  }
  for (std::size_t mask = 0; mask < (std::size_t{1} << systems); ++mask) {
    std::vector<branch_outcome> outcomes;
    int failures = 0;
    for (int k = 0; k < systems; ++k) {
      const bool failed = (mask >> k) & 1u;
      failures += failed ? 1 : 0;
      outcomes.push_back(failed ? branch_outcome::failure
                                : branch_outcome::success);
    }
    et.add_sequence(std::move(outcomes), failures >= 2 ? "CD" : "OK");
  }
  return et;
}

/// Four functional events over shared pumps, bypassed from the end: the
/// pairs (A, B) and (C, D) share a suffix product within their partition.
class bypass_tail_fixture {
 public:
  fault_tree ft;

  bypass_tail_fixture() {
    const node_index ie = ft.add_basic_event("IE", 2e-2);
    const node_index a = ft.add_basic_event("PUMP_A", 3e-2);
    const node_index b = ft.add_basic_event("PUMP_B", 4e-2);
    const node_index c = ft.add_basic_event("PUMP_C", 5e-2);
    const node_index bus = ft.add_basic_event("BUS", 1e-3);
    std::vector<node_index> gates = {
        ft.add_gate("G0", gate_type::or_gate, {a, bus}),
        ft.add_gate("G1", gate_type::and_gate, {a, b}),
        ft.add_gate("G2", gate_type::or_gate, {b, c, bus}),
        ft.add_atleast_gate("G3", 2, {a, b, c})};
    ft.set_top(ft.add_gate("TOP", gate_type::or_gate, gates));
    using enum branch_outcome;
    et_.emplace(ft, ie, "TAIL");
    for (std::size_t i = 0; i < gates.size(); ++i) {
      et_->add_functional_event("F" + std::to_string(i), gates[i]);
    }
    et_->add_sequence({success, success, bypass, bypass}, "OK");   // A
    et_->add_sequence({failure, success, bypass, bypass}, "OK");   // B
    et_->add_sequence({success, failure, success, bypass}, "OK");  // C
    et_->add_sequence({failure, failure, success, bypass}, "CD");  // D
    et_->add_sequence({bypass, failure, failure, success}, "CD");
    et_->add_sequence({bypass, failure, failure, failure}, "CD");
    et_->validate();
  }

  const event_tree& et() const { return *et_; }

 private:
  std::optional<event_tree> et_;
};

/// In one compilation of `et`, every sequence's suffix product is the
/// prefix fold's own node; and compile_event_tree() on a null, a 2- and an
/// 8-worker pool evaluates every sequence and end state to the folds'
/// probabilities bit for bit, with the same counters on every pool.
void expect_suffix_compile_equals_fold(const event_tree& et,
                                       const std::vector<std::string>& names,
                                       const std::vector<thread_pool*>& pools,
                                       const std::string& label) {
  event_tree_bdd compiled(et);
  std::vector<double> expected;
  for (std::size_t s = 0; s < et.num_sequences(); ++s) {
    const bdd_ref suffix = compiled.sequence(s);
    const bdd_ref fold = event_tree_bdd_test_access::prefix_fold(compiled, s);
    EXPECT_EQ(suffix, fold) << label << " sequence " << s;
    expected.push_back(compiled.probability(fold));
  }
  for (const std::string& name : names) {
    expected.push_back(compiled.probability(
        event_tree_bdd_test_access::fold(compiled, name)));
  }
  const event_tree_compilation serial = compile_event_tree(et, names, nullptr);
  for (thread_pool* pool : pools) {
    const event_tree_compilation c = compile_event_tree(et, names, pool);
    const std::string at = label + " threads " +
                           std::to_string(pool != nullptr ? pool->size() : 1);
    std::vector<double> got;
    c.plan.evaluate(node_probs(et.ft()), got);
    EXPECT_EQ(got, expected) << at;
    EXPECT_EQ(c.bdd_nodes, serial.bdd_nodes) << at;
    EXPECT_EQ(c.plan.nodes(), serial.plan.nodes()) << at;
    EXPECT_EQ(c.suffix_hits, serial.suffix_hits) << at;
    EXPECT_EQ(c.gates_compiled, serial.gates_compiled) << at;
  }
}

TEST(EventTreeBdd, SuffixCompileEqualsPrefixFold) {
  // plant.etree (CCF-expanded), the scenario tests' demo, a tree bypassing
  // its last events, and random trees with bypass outcomes, repeated gates
  // and incomplete sequence sets.
  thread_pool pool2(2);
  thread_pool pool8(8);
  const std::vector<thread_pool*> pools = {nullptr, &pool2, &pool8};
  scenario_options opts;
  opts.quantify_cutsets = false;
  opts.analysis.publish_metrics = false;
  const scenario_engine plant(load_plant(), opts);
  expect_suffix_compile_equals_fold(plant.compiled_event_tree(), {"OK", "CD"},
                                    pools, "plant");
  const scenario_engine demo(
      parse_scenario_string("be IE 1e-2\nbe PUMP_A 2e-3\nbe PUMP_B 2e-3\n"
                            "be BACKUP 5e-3\nbe VALVE 1e-3\n"
                            "and SYS1_F PUMP_A PUMP_B\n"
                            "or SYS2_F BACKUP VALVE\nor TOP SYS1_F SYS2_F\n"
                            "top TOP\n\netree DEMO\ninitiating IE\n"
                            "functional S1 SYS1_F\nfunctional S2 SYS2_F\n"
                            "sequence OK S -\nsequence OK F S\n"
                            "sequence CD F F\n"),
      opts);
  expect_suffix_compile_equals_fold(demo.compiled_event_tree(), {"OK", "CD"},
                                    pools, "demo");
  const bypass_tail_fixture tail;
  expect_suffix_compile_equals_fold(tail.et(), {"OK", "CD"}, pools, "tail");
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fault_tree ft = testing::make_random_static_tree(seed, 10, 6).structure();
    const event_tree et = testing::make_random_event_tree(seed, ft);
    expect_suffix_compile_equals_fold(et, {"CD", "OK"}, pools,
                                      "seed " + std::to_string(seed));
  }
}

TEST(EventTreeBdd, IndustrialSuffixCompile) {
  // The 512-sequence tree: eight partitions by the last three events, each
  // 64 sequences making 576 memo lookups over 129 distinct suffix products.
  const fault_tree ft = industrial_model1();
  const event_tree et = industrial_event_tree(ft);
  thread_pool pool2(2);
  thread_pool pool8(8);
  expect_suffix_compile_equals_fold(et, {"CD", "OK"}, {nullptr, &pool2, &pool8},
                                    "industrial");
  const event_tree_compilation c = compile_event_tree(et, {"CD", "OK"}, &pool2);
  EXPECT_EQ(c.suffix_hits, 8u * (576u - 129u));
  // The managers hold little beyond what the plans keep.
  EXPECT_LE(c.bdd_nodes * 4, c.plan.nodes() * 5)
      << c.bdd_nodes << " nodes for " << c.plan.nodes() << " plan nodes";

  // gates_compiled counts each gate once, as one shared compiler lowers it.
  event_tree_bdd shared(et);
  for (std::size_t s = 0; s < et.num_sequences(); ++s) shared.sequence(s);
  shared.end_state("CD");
  shared.end_state("OK");
  EXPECT_EQ(c.gates_compiled, shared.gates_compiled());
}

TEST(EventTreeBdd, SuffixHitsAreExact) {
  // A hit is a repeated (suffix product, event, outcome) within a
  // partition: in the tail fixture, B reuses A's ¬G1 and D reuses C's
  // ¬G2 and G1 ∧ ¬G2. Sequences differing in a late branch share nothing.
  const bypass_tail_fixture tail;
  EXPECT_EQ(compile_event_tree(tail.et(), {"OK", "CD"}, nullptr).suffix_hits,
            3u);
  event_tree_bdd shared(tail.et());
  for (std::size_t s = 0; s < tail.et().num_sequences(); ++s) {
    shared.sequence(s);
  }
  EXPECT_EQ(shared.suffix_hits(), 3u);

  const et_fixture fx;
  EXPECT_EQ(compile_event_tree(fx.et(), {"OK", "CD"}, nullptr).suffix_hits,
            0u);
  scenario_options opts;
  opts.quantify_cutsets = false;
  opts.analysis.publish_metrics = false;
  const scenario_engine plant(load_plant(), opts);
  EXPECT_EQ(compile_event_tree(plant.compiled_event_tree(), {"OK"}, nullptr)
                .suffix_hits,
            0u);
}

TEST(EventTreeBdd, SmallTreeCompilesAsOneJob) {
  // Below 128 sequences a split would only duplicate the gate BDDs:
  // plant.etree (4 sequences) compiles every sequence and end state in one
  // manager, so its plan is one shared compile's, node for node and bit
  // for bit, in compile_event_tree() and in the scenario engine's counters.
  scenario_options opts;
  opts.quantify_cutsets = false;
  opts.analysis.publish_metrics = false;
  scenario_engine plant(load_plant(), opts);
  const event_tree& et = plant.compiled_event_tree();
  const std::vector<std::string> names = {"OK", "CD"};
  event_tree_bdd shared(et);
  std::vector<bdd_ref> roots;
  for (std::size_t s = 0; s < et.num_sequences(); ++s) {
    roots.push_back(shared.sequence(s));
  }
  for (const std::string& name : names) roots.push_back(shared.end_state(name));
  std::vector<double> expected;
  for (const bdd_ref root : roots) expected.push_back(shared.probability(root));
  const std::size_t shared_nodes = shared.nodes();
  const bdd_plan shared_plan = std::move(shared).freeze(roots);

  const event_tree_compilation c = compile_event_tree(et, names, nullptr);
  EXPECT_EQ(c.plan.nodes(), shared_plan.size());
  EXPECT_EQ(c.bdd_nodes, shared_nodes);
  std::vector<double> got;
  c.plan.evaluate(node_probs(et.ft()), got);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(plant.run().stats.scenario_plan_nodes, shared_plan.size());
}

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

TEST(EventTree, PinnedResultsAcrossTrieRewrite) {
  // Exact values captured while end states were still folds of their
  // sequence roots. end_state_probability_exact is the oracle the scenario
  // engine tests compare against, so it cannot vouch for itself: these
  // literals pin it, and the engine, bit for bit.
  scenario_options opts;
  opts.analysis.threads = 1;
  opts.analysis.publish_metrics = false;
  scenario_engine plant(load_plant(), opts);
  const scenario_result r = plant.run();
  const std::vector<const char*> sequences = {
      "0x1.4634c2aa5f0ebp-7", "0x1.79348680e8afap-15",
      "0x1.3a128835619fp-27", "0x1.351b199f42e93p-28"};
  ASSERT_EQ(r.sequences.size(), sequences.size());
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    EXPECT_EQ(hex(r.sequences[s].probability), sequences[s]) << s;
  }
  const std::vector<std::pair<const char*, const char*>> end_states = {
      {"OK", "0x1.47ae0ad2087acp-7"}, {"CD", "0x1.351b199f42e93p-28"}};
  ASSERT_EQ(r.end_states.size(), end_states.size());
  for (std::size_t e = 0; e < end_states.size(); ++e) {
    const auto& [name, expected] = end_states[e];
    EXPECT_EQ(r.end_states[e].name, name);
    EXPECT_EQ(hex(r.end_states[e].probability), expected) << name;
    EXPECT_EQ(hex(end_state_probability_exact(plant.compiled_event_tree(),
                                              name)),
              expected)
        << name;
  }

  // The bench-size industrial model 1 (seed 1) behind nine functional
  // events, all 512 success/failure sequences, CD on two or more failures.
  industrial_options o;
  o.seed = 1;
  o.num_frontline_systems = 18;
  o.num_support_systems = 5;
  o.num_initiating_events = 10;
  o.sequences_per_ie = 6;
  o.components_per_train = 5;
  const fault_tree ft = generate_industrial(o).ft;
  constexpr int systems = 9;
  event_tree et(ft, ft.find("IE0"), "IND");
  for (int k = 0; k < systems; ++k) {
    et.add_functional_event("F" + std::to_string(k),
                            ft.find("SYS" + std::to_string(k) + "_F"));
  }
  for (std::size_t mask = 0; mask < (std::size_t{1} << systems); ++mask) {
    std::vector<branch_outcome> outcomes;
    int failures = 0;
    for (int k = 0; k < systems; ++k) {
      const bool failed = (mask >> k) & 1u;
      failures += failed ? 1 : 0;
      outcomes.push_back(failed ? branch_outcome::failure
                                : branch_outcome::success);
    }
    et.add_sequence(std::move(outcomes), failures >= 2 ? "CD" : "OK");
  }
  EXPECT_EQ(hex(end_state_probability_exact(et, "CD")),
            "0x1.9def7885dbff1p-25");
  EXPECT_EQ(hex(end_state_probability_exact(et, "OK")),
            "0x1.ae498bbdc4f9ap-8");
}

}  // namespace
}  // namespace sdft
