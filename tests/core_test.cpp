#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/mcs_model.hpp"
#include "engine/engine.hpp"
#include "engine/quant_cache.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/mocus.hpp"
#include "product/product_ctmc.hpp"
#include "sdft/translate.hpp"
#include "ftc_reference.hpp"
#include "test_models.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

cutset named_cutset(const sd_fault_tree& tree,
                    std::vector<std::string> names) {
  cutset c;
  for (const auto& n : names) c.push_back(tree.structure().find(n));
  std::sort(c.begin(), c.end());
  return c;
}

// --- FT_C construction on the running example ---------------------------

TEST(McsModel, StaticBranchingTriggerAlreadyFailedByStatics) {
  // Cutset {a, d} of the running example: d's trigger PUMP1 = OR(a, b) is
  // failed by the static a in C, so the trigger model is constant TRUE and
  // no event is added.
  const sd_fault_tree tree = testing::example3_sd();
  const mcs_model model =
      build_mcs_model(tree, named_cutset(tree, {"a", "d"}));
  EXPECT_NEAR(model.static_factor, testing::p_fts, 1e-18);
  EXPECT_EQ(model.cutset_dynamic.size(), 1u);
  EXPECT_TRUE(model.added_dynamic.empty());
  EXPECT_TRUE(model.added_static.empty());
  ASSERT_EQ(model.used_classes.size(), 1u);
  EXPECT_EQ(model.used_classes[0], trigger_class::static_branching);

  // d is active from time 0, so p-tilde = p(a) * (1 - e^{-lambda t}).
  const double t = 24.0;
  const double p = quantify_mcs_model(model, t);
  EXPECT_NEAR(p, testing::p_fts * (1.0 - std::exp(-1e-3 * t)), 1e-9);
}

TEST(McsModel, StaticBranchingTriggerFromCutsetEvent) {
  // Cutset {b, d}: the trigger model of PUMP1 reduces to the single
  // dynamic event b (Rel = Dyn intersect C = {b}).
  const sd_fault_tree tree = testing::example3_sd();
  const mcs_model model =
      build_mcs_model(tree, named_cutset(tree, {"b", "d"}));
  EXPECT_DOUBLE_EQ(model.static_factor, 1.0);
  EXPECT_EQ(model.cutset_dynamic.size(), 2u);
  EXPECT_TRUE(model.added_dynamic.empty());

  // Cross-check against the exact product semantics of FT_C itself and
  // against a restricted original model where a, c, e cannot fail: in both
  // cases the runs reaching Failed({b, d}) coincide.
  const double t = 24.0;
  const double via_model = quantify_mcs_model(model, t);
  sd_fault_tree restricted = testing::example3_sd(1e-3, 5e-2);
  restricted.structure().set_probability(restricted.structure().find("a"), 0);
  restricted.structure().set_probability(restricted.structure().find("c"), 0);
  restricted.structure().set_probability(restricted.structure().find("e"), 0);
  const double via_product = exact_failure_probability(restricted, t);
  EXPECT_NEAR(via_model, via_product, 1e-10);
}

TEST(McsModel, RejectsPurelyStaticCutset) {
  const sd_fault_tree tree = testing::example3_sd();
  EXPECT_THROW(build_mcs_model(tree, named_cutset(tree, {"a", "c"})),
               model_error);
}

// --- Example 11: static joins require the added event -------------------

/// e, f dynamic; G = OR(e, f) triggers g; top = AND(e, g).
struct joins_fixture {
  sd_fault_tree tree;
  node_index e, f, g;

  explicit joins_fixture(double repair = 0.2) {
    e = tree.add_dynamic_event("e", make_repairable(0.05, repair));
    f = tree.add_dynamic_event("f", make_repairable(0.08, repair));
    const node_index trig_gate =
        tree.add_gate("G", gate_type::or_gate, {e, f});
    g = tree.add_dynamic_event("g", testing::example2_pump2(0.1, repair));
    tree.set_top(tree.add_gate("top", gate_type::and_gate, {e, g}));
    tree.set_trigger(trig_gate, g);
    tree.validate();
  }
};

TEST(McsModel, StaticJoinsAddsInterferingEvent) {
  const joins_fixture fx;
  const mcs_model model =
      build_mcs_model(fx.tree, cutset{fx.e, fx.g});
  // Rel_g = all dynamic events under G = {e, f}: f is added.
  EXPECT_EQ(model.added_dynamic, std::vector<node_index>{fx.f});
  ASSERT_EQ(model.used_classes.size(), 1u);
  EXPECT_EQ(model.used_classes[0], trigger_class::static_joins);
  // The quantification matches the full product semantics: {e, g} is the
  // only MCS and every failure run fails both e and g simultaneously.
  const double t = 10.0;
  EXPECT_NEAR(quantify_mcs_model(model, t),
              exact_failure_probability(fx.tree, t), 1e-9);
}

TEST(McsModel, UnderApproximationDropsInterference) {
  // Example 11's point: without f, runs where f starts g early (and f then
  // recovers) are lost, so the under-approximation is strictly smaller.
  const joins_fixture fx;
  const double t = 10.0;
  const double exact =
      quantify_mcs_model(build_mcs_model(fx.tree, cutset{fx.e, fx.g}), t);
  const double under = quantify_mcs_model(
      build_mcs_model(fx.tree, cutset{fx.e, fx.g},
                      approx_mode::under_approximate),
      t);
  EXPECT_LT(under, exact);
}

// --- Example 10: the general case adds static guards --------------------

/// a, b, c dynamic, d static; G = AND(OR(a, b), OR(c, d)) triggers e;
/// top = AND(a, c, e). The minimal trigger sets are {a,c}, {a,d}, {b,c},
/// {b,d} as in paper Example 10.
struct general_fixture {
  sd_fault_tree tree;
  node_index a, b, c, d, e;

  general_fixture() {
    a = tree.add_dynamic_event("a", make_repairable(0.03, 0.3));
    b = tree.add_dynamic_event("b", make_repairable(0.02, 0.3));
    c = tree.add_dynamic_event("c", make_repairable(0.03, 0.3));
    d = tree.add_static_event("d", 0.05);
    const node_index g1 = tree.add_gate("G1", gate_type::or_gate, {a, b});
    const node_index g2 = tree.add_gate("G2", gate_type::or_gate, {c, d});
    const node_index g = tree.add_gate("G", gate_type::and_gate, {g1, g2});
    e = tree.add_dynamic_event("e", testing::example2_pump2(0.1, 0.3));
    tree.set_top(tree.add_gate("top", gate_type::and_gate, {a, c, e}));
    tree.set_trigger(g, e);
    tree.validate();
  }
};

TEST(McsModel, GeneralCaseAddsGuardsAndDynamics) {
  const general_fixture fx;
  const mcs_model model =
      build_mcs_model(fx.tree, cutset{fx.a, fx.c, fx.e});
  ASSERT_EQ(model.used_classes.size(), 1u);
  EXPECT_EQ(model.used_classes[0], trigger_class::general);
  // Rel_e = {a, b, c, d} (paper Example 10): b and the static guard d are
  // added to FT_C.
  EXPECT_EQ(model.added_dynamic, std::vector<node_index>{fx.b});
  EXPECT_EQ(model.added_static, std::vector<node_index>{fx.d});
  // The trigger model must contain the four minimal trigger sets as AND
  // gates under an OR.
  const node_index trig = model.tree.structure().find("trig::G");
  ASSERT_NE(trig, fault_tree::npos);
  EXPECT_EQ(model.tree.structure().node(trig).inputs.size(), 4u);
}

TEST(McsModel, GeneralCaseMatchesExactProduct) {
  const general_fixture fx;
  const double t = 8.0;
  const mcs_model model =
      build_mcs_model(fx.tree, cutset{fx.a, fx.c, fx.e});
  // {a, c, e} is the only MCS of the tree, so p-tilde(C) equals the exact
  // failure probability.
  EXPECT_NEAR(quantify_mcs_model(model, t),
              exact_failure_probability(fx.tree, t), 1e-9);
}

TEST(McsModel, OverApproximationAssumesGuardsFailed) {
  const general_fixture fx;
  const double t = 8.0;
  const double exact = quantify_mcs_model(
      build_mcs_model(fx.tree, cutset{fx.a, fx.c, fx.e}), t);
  const double over = quantify_mcs_model(
      build_mcs_model(fx.tree, cutset{fx.a, fx.c, fx.e},
                      approx_mode::over_approximate),
      t);
  const double under = quantify_mcs_model(
      build_mcs_model(fx.tree, cutset{fx.a, fx.c, fx.e},
                      approx_mode::under_approximate),
      t);
  EXPECT_GE(over, exact - 1e-12);
  EXPECT_LE(under, exact + 1e-12);
}

// --- Chained static joins with uniform triggering (Fig. 1 right, 3) -----

/// Three chained two-component systems: G1 = OR(e1, f1) triggers e2 and
/// f2; G2 = OR(e2, f2) triggers e3 and f3. All dynamic events under each
/// triggering gate share one trigger, so the gates have static joins with
/// uniform triggering and the per-cutset construction never needs the
/// general case (paper §V-C, footnote 3).
struct chain_fixture {
  sd_fault_tree tree;
  node_index e1, f1, e2, f2, e3, f3;

  chain_fixture() {
    e1 = tree.add_dynamic_event("e1", make_repairable(0.04, 0.2));
    f1 = tree.add_dynamic_event("f1", make_repairable(0.06, 0.2));
    const node_index g1 = tree.add_gate("G1", gate_type::or_gate, {e1, f1});
    e2 = tree.add_dynamic_event("e2", testing::example2_pump2(0.05, 0.2));
    f2 = tree.add_dynamic_event("f2", testing::example2_pump2(0.07, 0.2));
    const node_index g2 = tree.add_gate("G2", gate_type::or_gate, {e2, f2});
    e3 = tree.add_dynamic_event("e3", testing::example2_pump2(0.08, 0.2));
    f3 = tree.add_dynamic_event("f3", testing::example2_pump2(0.09, 0.2));
    const node_index g3 = tree.add_gate("G3", gate_type::or_gate, {e3, f3});
    tree.set_top(tree.add_gate("top", gate_type::and_gate, {g1, g2, g3}));
    tree.set_trigger(g1, e2);
    tree.set_trigger(g1, f2);
    tree.set_trigger(g2, e3);
    tree.set_trigger(g2, f3);
    tree.validate();
  }
};

TEST(McsModel, UniformTriggeringChainsNeverUseGeneralCase) {
  const chain_fixture fx;
  // Both triggering gates have static joins; G1 starts the chain (its
  // dynamics are untriggered, so no uniform triggering — the paper's
  // "beginning of each triggering sequence" case), while G2's dynamics
  // share G1 as their trigger: uniform triggering.
  const auto report = analyze_triggers(fx.tree);
  ASSERT_EQ(report.gates.size(), 2u);
  for (const auto& entry : report.gates) {
    EXPECT_EQ(entry.cls, trigger_class::static_joins);
    const bool is_g1 =
        fx.tree.structure().node(entry.gate).name == "G1";
    EXPECT_EQ(entry.uniform_triggering, !is_g1);
  }
  // Cutset {e1, e2, e3}: modelling e3's trigger G2 adds f2, whose trigger
  // G1 is already part of FT_C (it was modelled for e2) — step 3 reuses it
  // and the general case never fires (paper footnote 3).
  const mcs_model model =
      build_mcs_model(fx.tree, cutset{fx.e1, fx.e2, fx.e3});
  for (trigger_class cls : model.used_classes) {
    EXPECT_NE(cls, trigger_class::general);
  }
  // f1 (Rel of G1) and f2 (Rel of G2) are pulled in as interfering
  // events; f3 appears in no relevant set.
  EXPECT_EQ(model.added_dynamic.size(), 2u);
  EXPECT_TRUE(model.added_static.empty());
}

TEST(McsModel, UniformTriggeringChainQuantifiesAgainstExact) {
  const chain_fixture fx;
  const double t = 6.0;
  analysis_options opts;
  opts.horizon = t;
  const analysis_result result = analyze(fx.tree, opts);
  for (const auto& q : result.cutsets) EXPECT_TRUE(q.error.empty()) << q.error;
  const double exact = exact_failure_probability(fx.tree, t);
  EXPECT_GE(result.failure_probability, exact - 1e-10);
  EXPECT_LE(result.failure_probability, 3.0 * exact);
}

// --- The trigger-set memo -------------------------------------------------

/// Every minimal cutset of `tree`'s FT-bar at `cutoff` that holds a
/// dynamic event, in SD-tree indices (stage 2 only: nothing is solved).
std::vector<cutset> dynamic_cutsets(const sd_fault_tree& tree, double cutoff) {
  const static_translation tr = translate_to_static(tree, 24.0);
  mocus_options opts;
  opts.cutoff = cutoff;
  std::vector<cutset> out;
  for (cutset c : mocus(tr.ft_bar, opts).cutsets) {
    for (node_index& e : c) e = tr.to_sd.at(e);
    std::sort(c.begin(), c.end());
    if (std::any_of(c.begin(), c.end(),
                    [&](node_index e) { return tree.is_dynamic(e); })) {
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// Plans FT_C for every cutset under every approx_mode twice, fresh and
/// through ONE memo shared by all of them, and requires equal plans: a
/// key aliasing two modes' (or two cutsets') MOCUS inputs would surface
/// as a different trigger model. Returns the memo hits.
std::size_t expect_memo_exact(const sd_fault_tree& tree,
                              const std::vector<cutset>& cutsets,
                              const std::string& label) {
  EXPECT_FALSE(cutsets.empty()) << label;
  const trigger_set_memo memo;
  std::size_t solved = 0;
  std::size_t hits = 0;
  for (approx_mode mode :
       {approx_mode::as_classified, approx_mode::under_approximate,
        approx_mode::over_approximate}) {
    for (const cutset& c : cutsets) {
      std::size_t fresh_solved = 0;
      std::size_t memo_solved = 0;
      const ftc_plan fresh =
          build_ftc_plan(tree, c, mode, nullptr, &fresh_solved);
      const ftc_plan memoised =
          build_ftc_plan(tree, c, mode, &memo, &memo_solved);
      const auto where = [&] {
        return label + " mode " + std::to_string(static_cast<int>(mode)) +
               " cutset of " + std::to_string(c.size());
      };
      EXPECT_EQ(ftc_signature(memoised, tree), ftc_signature(fresh, tree))
          << where();
      EXPECT_EQ(memoised.cutset_dynamic(), fresh.cutset_dynamic()) << where();
      EXPECT_EQ(memoised.added_dynamic(), fresh.added_dynamic()) << where();
      EXPECT_EQ(memoised.added_static(), fresh.added_static()) << where();
      EXPECT_EQ(memoised.used_classes, fresh.used_classes) << where();
      EXPECT_EQ(fresh_solved, fresh.trigger_gates());
      EXPECT_EQ(memoised.trigger_gates(), fresh_solved) << where();
      solved += memo_solved;
      hits += memoised.trigger_gates() - memo_solved;
    }
  }
  // Serially every miss stores a new key.
  EXPECT_EQ(solved, memo.size()) << label;
  return hits;
}

TEST(McsModel, TriggerSetMemoIsExact) {
  bwr_options bwr;
  bwr.dynamic_events = true;
  bwr.repair_rate = 0.1;
  const sd_fault_tree bwr_tree =
      make_bwr_model(with_bwr_triggers(bwr, bwr_num_triggers));
  EXPECT_GT(
      expect_memo_exact(bwr_tree, dynamic_cutsets(bwr_tree, 1e-12), "bwr"),
      0u);

  annotation_options aopts;
  aopts.dynamic_fraction = 1.0;
  aopts.trigger_fraction = 0.1;
  const sd_fault_tree industrial = testing::annotated_study(
      testing::small_industrial_model(7), 1e-18, aopts);
  EXPECT_GT(expect_memo_exact(industrial, dynamic_cutsets(industrial, 1e-20),
                              "industrial"),
            0u);

  // The general case with static guards, which the models above never
  // reach.
  const sd_fault_tree guarded = testing::guarded_trains_sd(4);
  const std::vector<cutset> guarded_cutsets = dynamic_cutsets(guarded, 0.0);
  ASSERT_FALSE(guarded_cutsets.empty());
  const mcs_model deepest = build_mcs_model(guarded, guarded_cutsets.back());
  EXPECT_FALSE(deepest.added_static.empty());
  for (trigger_class cls : deepest.used_classes) {
    EXPECT_EQ(cls, trigger_class::general);
  }
  EXPECT_GT(expect_memo_exact(guarded, guarded_cutsets, "guarded trains"),
            0u);

  std::size_t random_hits = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const testing::random_sd_tree random = testing::make_random_sd_tree(seed);
    const std::vector<cutset> cutsets = dynamic_cutsets(random.tree, 0.0);
    if (random.num_triggered == 0 || cutsets.empty()) continue;
    random_hits += expect_memo_exact(random.tree, cutsets,
                                     "random seed " + std::to_string(seed));
  }
  EXPECT_GT(random_hits, 0u);
}

/// For every cutset and approx_mode: the signature read off the plan
/// equals the reference serialisation of the materialised FT_C, and the
/// materialised FT_C validates. Returns the number of plans checked.
std::size_t expect_signature_matches_reference(
    const sd_fault_tree& tree, const std::vector<cutset>& cutsets,
    const std::string& label) {
  std::size_t checked = 0;
  for (approx_mode mode :
       {approx_mode::as_classified, approx_mode::under_approximate,
        approx_mode::over_approximate}) {
    for (const cutset& c : cutsets) {
      const ftc_plan plan = build_ftc_plan(tree, c, mode);
      const sd_fault_tree ftc = materialise_ftc(plan, tree);
      EXPECT_NO_THROW(ftc.validate());
      EXPECT_EQ(ftc_signature(plan, tree),
                testing::reference_ftc_signature(ftc))
          << label << " mode " << static_cast<int>(mode) << " cutset of "
          << c.size();
      ++checked;
    }
  }
  return checked;
}

TEST(FtcPlan, SignatureMatchesReference) {
  bwr_options bwr;
  bwr.dynamic_events = true;
  bwr.repair_rate = 0.1;
  const sd_fault_tree bwr_tree =
      make_bwr_model(with_bwr_triggers(bwr, bwr_num_triggers));
  EXPECT_GT(expect_signature_matches_reference(
                bwr_tree, dynamic_cutsets(bwr_tree, 1e-12), "bwr"),
            0u);

  // General-case triggers with static guards: FT_C holds static events.
  const sd_fault_tree guarded = testing::guarded_trains_sd(4);
  EXPECT_GT(expect_signature_matches_reference(
                guarded, dynamic_cutsets(guarded, 0.0), "guarded trains"),
            0u);

  std::size_t random_checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const testing::random_sd_tree random = testing::make_random_sd_tree(seed);
    random_checked += expect_signature_matches_reference(
        random.tree, dynamic_cutsets(random.tree, 0.0),
        "random seed " + std::to_string(seed));
  }
  EXPECT_GT(random_checked, 0u);
}

TEST(FtcPlanMemo, ConcurrentInsertsAgreeAndFirstInsertWins) {
  // Eight threads find-or-insert 1,000 overlapping keys (500 cutsets under
  // two modes) in different orders. Each thread's plan carries its id in
  // `top`, so the stored plan names the winning insert.
  constexpr int kThreads = 8;
  constexpr std::size_t kCutsets = 500;
  const approx_mode modes[2] = {approx_mode::as_classified,
                                approx_mode::over_approximate};
  const std::size_t keys = 2 * kCutsets;
  const auto key_cutset = [](std::size_t k) {
    const auto i = static_cast<node_index>(k % kCutsets);
    return cutset{i, i + 1, 3 * i + 7};
  };
  const ftc_plan_memo memo;
  std::vector<std::vector<const ftc_plan*>> seen(
      kThreads, std::vector<const ftc_plan*>(keys, nullptr));
  std::vector<std::vector<char>> won(kThreads, std::vector<char>(keys, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t j = 0; j < keys; ++j) {
        // Strides coprime to `keys`: every thread visits every key.
        constexpr std::size_t strides[kThreads] = {1, 3, 7, 9, 11, 13, 17, 19};
        const std::size_t k = (j * strides[t] + 97 * t) % keys;
        const approx_mode mode = modes[k / kCutsets];
        const cutset c = key_cutset(k);
        const ftc_plan* p = memo.find(mode, c);
        if (p == nullptr) {
          ftc_plan plan;
          plan.top = static_cast<node_index>(t);
          p = memo.insert(mode, c, std::move(plan));
          won[t][k] = p->top == static_cast<node_index>(t);
        }
        seen[t][k] = p;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(memo.size(), keys);
  for (std::size_t k = 0; k < keys; ++k) {
    int winners = 0;
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_NE(seen[t][k], nullptr);
      EXPECT_EQ(seen[t][k], seen[0][k]) << "key " << k << " thread " << t;
      winners += won[t][k];
    }
    EXPECT_EQ(winners, 1) << "key " << k;
    EXPECT_EQ(memo.find(modes[k / kCutsets], key_cutset(k)), seen[0][k]);
  }

  // A later insert under a present key keeps the first plan.
  ftc_plan late;
  late.top = 999;
  EXPECT_EQ(memo.insert(modes[0], key_cutset(0), std::move(late)),
            seen[0][0]);
  EXPECT_NE(seen[0][0]->top, 999u);
  EXPECT_EQ(memo.size(), keys);
}

// --- The full pipeline ---------------------------------------------------

TEST(Analyzer, RunningExampleAgainstExactSemantics) {
  const sd_fault_tree tree = testing::example3_sd();
  analysis_options opts;
  opts.horizon = 24.0;
  opts.threads = 2;
  const analysis_result result = analyze(tree, opts);

  EXPECT_EQ(result.num_cutsets, 5u);      // {e},{a,c},{a,d},{b,c},{b,d}
  EXPECT_EQ(result.num_dynamic_cutsets, 3u);

  const double exact = exact_failure_probability(tree, opts.horizon);
  // Rare-event over-approximation, but tight for these probabilities.
  EXPECT_GE(result.failure_probability, exact - 1e-12);
  EXPECT_LT(result.failure_probability, exact * 1.01);
}

TEST(Analyzer, CutsetBreakdownOfRunningExample) {
  const sd_fault_tree tree = testing::example3_sd();
  analysis_options opts;
  opts.horizon = 24.0;
  const analysis_result result = analyze(tree, opts);
  ASSERT_EQ(result.cutsets.size(), 5u);

  double sum = 0.0;
  for (const auto& q : result.cutsets) {
    EXPECT_TRUE(q.error.empty()) << q.error;
    sum += q.probability;
    if (q.dynamic) {
      EXPECT_GT(q.chain_states, 0u);
    } else {
      EXPECT_EQ(q.chain_states, 0u);
    }
  }
  EXPECT_NEAR(sum, result.failure_probability, 1e-15);

  // The static cutsets carry their product probabilities.
  const cutset ac = named_cutset(tree, {"a", "c"});
  const auto it = std::find_if(
      result.cutsets.begin(), result.cutsets.end(),
      [&](const cutset_result& q) { return q.events == ac; });
  ASSERT_NE(it, result.cutsets.end());
  EXPECT_NEAR(it->probability, testing::p_fts * testing::p_fts, 1e-18);
}

TEST(Analyzer, CutoffDropsIrrelevantCutsets) {
  const sd_fault_tree tree = testing::example3_sd();
  analysis_options all;
  analysis_options cut;
  cut.cutoff = 1e-5;
  const double full = analyze(tree, all).failure_probability;
  const analysis_result trimmed = analyze(tree, cut);
  EXPECT_LE(trimmed.failure_probability, full);
  EXPECT_LT(trimmed.num_cutsets, 5u);
}

TEST(Analyzer, StaticOnlyTreeReducesToRareEventApproximation) {
  sd_fault_tree tree(testing::example1_static());
  const analysis_result result = analyze(tree);
  EXPECT_EQ(result.num_dynamic_cutsets, 0u);
  const double expected = testing::p_tank + testing::p_fts * testing::p_fts +
                          2 * testing::p_fts * testing::p_fio +
                          testing::p_fio * testing::p_fio;
  EXPECT_NEAR(result.failure_probability, expected, 1e-15);
}

TEST(Analyzer, HorizonMonotonicity) {
  const sd_fault_tree tree = testing::example3_sd();
  analysis_options opts;
  double last = 0.0;
  for (double t : {6.0, 24.0, 48.0, 96.0}) {
    opts.horizon = t;
    const double p = analyze(tree, opts).failure_probability;
    EXPECT_GT(p, last);
    last = p;
  }
}

TEST(Analyzer, RepairsReduceFailureProbability) {
  analysis_options opts;
  opts.horizon = 48.0;
  const double no_repair =
      analyze(testing::example3_sd(1e-3, 0.0), opts).failure_probability;
  const double with_repair =
      analyze(testing::example3_sd(1e-3, 5e-2), opts).failure_probability;
  EXPECT_LT(with_repair, no_repair);
}

TEST(Analyzer, HistogramCountsDynamicEvents) {
  const joins_fixture fx;
  const analysis_result result = analyze(fx.tree);
  // Single MCS {e, g} with the added f: 3 dynamic events.
  ASSERT_EQ(result.num_dynamic_cutsets, 1u);
  ASSERT_GE(result.dynamic_events_histogram.size(), 4u);
  EXPECT_EQ(result.dynamic_events_histogram[3], 1u);
  EXPECT_NEAR(result.mean_dynamic_events, 3.0, 1e-12);
  EXPECT_NEAR(result.mean_added_dynamic_events, 1.0, 1e-12);
}

TEST(Analyzer, ProductLimitFallsBackConservatively) {
  const joins_fixture fx;
  analysis_options opts;
  opts.max_product_states = 2;  // force the fallback path
  const analysis_result result = analyze(fx.tree, opts);
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_FALSE(result.cutsets[0].error.empty());
  // The fallback is the FT-bar worst-case product, an upper bound.
  const double exact = exact_failure_probability(fx.tree, opts.horizon);
  EXPECT_GE(result.failure_probability, exact - 1e-12);
}

}  // namespace
}  // namespace sdft
