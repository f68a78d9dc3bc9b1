// Monte-Carlo backend tests: statistical validation at fixed seeds (CIs
// bracket analytic answers on the BWR and industrial studies), exact
// degeneration of forcing to crude on non-rare models, unbiasedness of
// forcing and splitting on closed-form micro-models, rare-event behaviour
// (crude empty where forcing stays tight), and the engine integration
// surface (analysis_result.mc, engine_stats mc.*, derived splitting
// levels).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/importance.hpp"
#include "mcs/mocus.hpp"
#include "product/product_ctmc.hpp"
#include "sdft/parser.hpp"
#include "sim/mc.hpp"
#include "sim/simulator.hpp"
#include "test_models.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

using sim::mc_method;
using sim::mc_options;
using sim::mc_result;

mc_result run_mc(const sd_fault_tree& tree, double horizon, mc_method method,
                 std::size_t trajectories, std::uint64_t seed) {
  mc_options opts;
  opts.method = method;
  opts.trajectories = trajectories;
  opts.seed = seed;
  return sim::estimate_failure_probability_mc(tree, horizon, opts);
}

/// A closed-form micro-model: a static structure whose top probability is
/// known exactly. Horizon is irrelevant for pure static trees.
struct micro_model {
  std::string name;
  sd_fault_tree tree;
  double exact;
};

std::vector<micro_model> closed_form_micro_models() {
  std::vector<micro_model> out;
  {
    sd_fault_tree t;
    t.set_top(t.add_gate("top", gate_type::or_gate,
                         {t.add_static_event("x", 0.3)}));
    out.push_back({"single event", std::move(t), 0.3});
  }
  {
    sd_fault_tree t;
    t.set_top(t.add_gate("top", gate_type::and_gate,
                         {t.add_static_event("x", 0.2),
                          t.add_static_event("y", 0.4)}));
    out.push_back({"AND pair", std::move(t), 0.2 * 0.4});
  }
  {
    sd_fault_tree t;
    t.set_top(t.add_gate("top", gate_type::or_gate,
                         {t.add_static_event("x", 0.2),
                          t.add_static_event("y", 0.4)}));
    out.push_back({"OR pair", std::move(t), 1.0 - 0.8 * 0.6});
  }
  {
    fault_tree ft;
    ft.set_top(ft.add_atleast_gate("top", 2,
                                   {ft.add_basic_event("x", 0.3),
                                    ft.add_basic_event("y", 0.3),
                                    ft.add_basic_event("z", 0.3)}));
    // 2-of-3: 3 p^2 (1-p) + p^3.
    out.push_back(
        {"2-of-3", sd_fault_tree(std::move(ft)), 3 * 0.09 * 0.7 + 0.027});
  }
  {
    // One dynamic exponential event: P = 1 - e^{-lambda t} at t = 10.
    sd_fault_tree t;
    t.set_top(t.add_gate(
        "top", gate_type::or_gate,
        {t.add_dynamic_event("x", make_repairable(0.05, 0.0))}));
    out.push_back({"exponential", std::move(t), 1.0 - std::exp(-0.05 * 10.0)});
  }
  return out;
}

TEST(McBackend, UnbiasedOnClosedFormMicroModels) {
  // Every estimator family must reproduce the closed-form answer of each
  // micro-model (the unbiasedness property: forced trajectories are
  // reweighted by the likelihood ratio; splitting telescopes conditional
  // level-crossing probabilities). The matrix makes 15 checks whose
  // streams share one seed, so assert a 4-sigma band rather than the
  // strict 95% interval — wide enough that a correlated seed excursion
  // cannot flake it, narrow enough that any real estimator bias at this
  // budget blows through it.
  for (const micro_model& m : closed_form_micro_models()) {
    for (mc_method method :
         {mc_method::crude, mc_method::forcing, mc_method::splitting}) {
      const mc_result r = run_mc(m.tree, 10.0, method, 60'000, 19);
      ASSERT_GT(r.std_error, 0.0) << m.name << " via " << to_string(method);
      EXPECT_NEAR(r.estimate, m.exact, 4 * r.std_error)
          << m.name << " via " << to_string(method) << ": " << r.estimate
          << " vs " << m.exact << " [" << r.ci_low << ", " << r.ci_high
          << "]";
    }
  }
}

TEST(McBackend, ForcingDegradesToCrudeExactlyWhenNothingIsRare) {
  // When the static probability mass already exceeds the forcing target,
  // the clamp q_e = max(p_e * boost, p_e) leaves every probability at its
  // nominal value: forcing must then be bit-identical to crude (same
  // streams, all weights one).
  sd_fault_tree tree;
  std::vector<node_index> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(
        tree.add_static_event("e" + std::to_string(i), 0.45));
  }
  tree.set_top(tree.add_gate("top", gate_type::and_gate, events));
  const mc_result crude = run_mc(tree, 1.0, mc_method::crude, 20'000, 5);
  const mc_result forcing = run_mc(tree, 1.0, mc_method::forcing, 20'000, 5);
  EXPECT_EQ(forcing.estimate, crude.estimate);
  EXPECT_EQ(forcing.std_error, crude.std_error);
  EXPECT_EQ(forcing.failures, crude.failures);
}

TEST(McBackend, MethodsAgreeOnNonRareRunningExample) {
  // All three estimators against the exact product-CTMC answer of the
  // (sped-up) running example — and hence against each other.
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  const double t = 24.0;
  const double exact = exact_failure_probability(tree, t);
  ASSERT_GT(exact, 0.05);
  for (mc_method method :
       {mc_method::crude, mc_method::forcing, mc_method::splitting}) {
    const mc_result r = run_mc(tree, t, method, 40'000, 11);
    EXPECT_TRUE(r.consistent_with(exact))
        << to_string(method) << ": " << r.estimate << " vs " << exact
        << " [" << r.ci_low << ", " << r.ci_high << "]";
  }
}

TEST(McBackend, ForcingTightWhereCrudeIsEmpty) {
  // AND of two 1e-5 events: exact 1e-10. At a 50k budget crude MC cannot
  // see a single failure (expected hits 5e-6) while forcing still returns
  // a bracketing interval with small relative error.
  sd_fault_tree tree;
  tree.set_top(tree.add_gate("top", gate_type::and_gate,
                             {tree.add_static_event("x", 1e-5),
                              tree.add_static_event("y", 1e-5)}));
  const double exact = 1e-10;
  const mc_result crude = run_mc(tree, 1.0, mc_method::crude, 50'000, 1);
  EXPECT_TRUE(crude.empty());
  EXPECT_EQ(crude.estimate, 0.0);

  const mc_result forcing = run_mc(tree, 1.0, mc_method::forcing, 50'000, 1);
  EXPECT_FALSE(forcing.empty());
  EXPECT_TRUE(forcing.consistent_with(exact))
      << forcing.estimate << " [" << forcing.ci_low << ", "
      << forcing.ci_high << "]";
  // Rule-of-three bound on what crude could resolve at this budget:
  // rel err >= (3/N)/p. Forcing must beat it by far more than 10x.
  const double crude_bound = (3.0 / 50'000) / exact;
  EXPECT_LT(forcing.relative_error, crude_bound / 10.0);
}

TEST(McBackend, StreamAdditivityAcrossCampaigns) {
  // The per-trajectory stream contract: campaigns [0, n) and [n, n + m)
  // concatenate to exactly the campaign [0, n + m).
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  mc_options opts;
  opts.method = mc_method::crude;
  opts.seed = 77;
  opts.trajectories = 2'000;
  const mc_result whole =
      sim::estimate_failure_probability_mc(tree, 12.0, opts);
  opts.trajectories = 1'000;
  const mc_result first =
      sim::estimate_failure_probability_mc(tree, 12.0, opts);
  opts.first_trajectory = 1'000;
  const mc_result second =
      sim::estimate_failure_probability_mc(tree, 12.0, opts);
  EXPECT_EQ(first.failures + second.failures, whole.failures);
  EXPECT_NE(first.failures, second.failures);  // streams actually differ
}

TEST(McBackend, CIsBracketAnalyticOnStaticBwrStudy) {
  // Forcing MC against the engine's rare-event sum on the static BWR
  // study, at the horizon where the approximation is validated (see
  // sim_test.cpp). Forcing needs 40x fewer trajectories than the crude
  // cross-validation to reach a comparable interval.
  const sd_fault_tree tree = make_bwr_model({});
  const double t = 200.0;
  analysis_options aopts;
  aopts.horizon = t;
  const double analytic = analyze(tree, aopts).failure_probability;
  ASSERT_GT(analytic, 0.0);
  const mc_result r = run_mc(tree, t, mc_method::forcing, 100'000, 1);
  EXPECT_TRUE(r.consistent_with(analytic))
      << r.estimate << " vs " << analytic << " [" << r.ci_low << ", "
      << r.ci_high << "]";
}

TEST(McBackend, CIsBracketExactOnStaticIndustrialStudy) {
  // Forcing MC against the exact-static BDD answer of a downsized
  // industrial study with raised probabilities (so the 95% interval is
  // reachable at a test-sized budget).
  industrial_options gopt;
  gopt.seed = 9;
  gopt.num_frontline_systems = 4;
  gopt.num_support_systems = 1;
  gopt.num_initiating_events = 3;
  gopt.sequences_per_ie = 2;
  gopt.components_per_train = 2;
  gopt.fts_min = 3e-3;
  gopt.fts_max = 3e-2;
  gopt.fio_rate_min = 1e-4;
  gopt.fio_rate_max = 1e-3;
  const sd_fault_tree tree(generate_industrial(gopt).ft);

  analysis_options aopts;
  aopts.horizon = 24.0;
  aopts.exact_static = true;
  const double exact = analyze(tree, aopts).exact_static_probability;
  ASSERT_GT(exact, 0.0);

  const mc_result r = run_mc(tree, 24.0, mc_method::forcing, 100'000, 4);
  EXPECT_TRUE(r.consistent_with(exact))
      << r.estimate << " vs " << exact << " [" << r.ci_low << ", "
      << r.ci_high << "]";
}

TEST(McBackend, EngineRunMatchesDirectEstimator) {
  // `--backend mc` through the engine must reproduce the direct estimator
  // call bit for bit and surface the campaign in analysis_result.mc and
  // the mc.* stats vocabulary.
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  analysis_options opts;
  opts.horizon = 24.0;
  opts.backend = cutset_backend::mc;
  opts.mc.method = mc_method::forcing;
  opts.mc.trajectories = 20'000;
  opts.mc.seed = 3;
  const analysis_result r = analyze(tree, opts);

  mc_options direct = opts.mc;
  const mc_result reference =
      sim::estimate_failure_probability_mc(tree, 24.0, direct);
  EXPECT_EQ(r.failure_probability, reference.estimate);
  EXPECT_EQ(r.mc.estimate, reference.estimate);
  EXPECT_EQ(r.mc.ci_low, reference.ci_low);
  EXPECT_EQ(r.mc.ci_high, reference.ci_high);
  EXPECT_EQ(r.mc.failures, reference.failures);
  EXPECT_EQ(r.num_cutsets, 0u);

  EXPECT_EQ(r.stats.backend, "mc");
  EXPECT_EQ(r.stats.mc_method, "forcing");
  EXPECT_EQ(r.stats.mc_trajectories, reference.trajectories);
  EXPECT_EQ(r.stats.mc_failures, reference.failures);
  EXPECT_GT(r.stats.mc_seconds, 0.0);
  EXPECT_EQ(r.stats.mc_estimate, reference.estimate);
}

TEST(McBackend, EngineDerivesSplittingLevelsFromPrepDepth) {
  // With levels = 0 the engine derives the splitting levels from the
  // preprocessed FT-bar's depth-to-top, clamped to [2, 8].
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  analysis_options opts;
  opts.horizon = 24.0;
  opts.backend = cutset_backend::mc;
  opts.mc.method = mc_method::splitting;
  opts.mc.trajectories = 10'000;
  opts.mc.seed = 6;
  const analysis_result r = analyze(tree, opts);
  EXPECT_GE(r.mc.levels_used, 2u);
  EXPECT_LE(r.mc.levels_used, 8u);
  EXPECT_EQ(r.stats.mc_levels, r.mc.levels_used);
  EXPECT_GT(r.mc.replications, 0u);
}

TEST(McBackend, EngineCombinesMcWithExactStatic) {
  const sd_fault_tree tree(testing::example1_static());
  analysis_options opts;
  opts.horizon = 5.0;
  opts.backend = cutset_backend::mc;
  opts.exact_static = true;
  opts.mc.method = mc_method::forcing;
  opts.mc.trajectories = 400'000;
  opts.mc.seed = 8;
  const analysis_result r = analyze(tree, opts);
  const double exact = testing::example1_static().probability_brute_force();
  EXPECT_NEAR(r.exact_static_probability, exact, 1e-12);
  EXPECT_TRUE(r.mc.consistent_with(exact))
      << r.mc.estimate << " vs " << exact << " [" << r.mc.ci_low << ", "
      << r.mc.ci_high << "]";
}

sd_fault_tree load_data_model(const std::string& file) {
  std::ifstream in(std::string(SDFT_DATA_DIR) + "/" + file);
  return parse_sd_fault_tree(in);
}

/// A 2-of-3 voting gate over repairable trains, one of them a triggered
/// standby, under an OR with a rare support event.
constexpr const char* kVotingModel =
    "be A_FTS 2e-3\n"
    "be B_FTS 2e-3\n"
    "be C_FTS 2e-3\n"
    "be SUPPORT 1e-4\n"
    "dyn A_FIO erlang 1 1e-3 0.05\n"
    "dyn B_FIO erlang 1 1e-3 0.05\n"
    "dyn C_FIO erlang-triggered 1 1e-3 0.05 100\n"
    "or A A_FTS A_FIO\n"
    "or B B_FTS B_FIO\n"
    "or C C_FTS C_FIO\n"
    "atleast TRAINS 2 A B C\n"
    "or TOP SUPPORT TRAINS\n"
    "trigger A C_FIO\n"
    "top TOP\n";

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

TEST(McBackend, PinnedResultsAcrossKernelRewrite) {
  // Exact values at fixed seeds. The statistical tests above only check
  // brackets and thread invariance, so a trajectory-kernel change that
  // reorders or drops random draws would pass them unnoticed; this pins
  // the draw order itself.
  struct pinned {
    const char* model;
    double horizon;
    mc_method method;
    const char* estimate;
    const char* std_error;
    std::size_t failures;
  };
  const std::vector<pinned> expected = {
      {"bwr", 24, mc_method::crude, "0x0p+0", "0x0p+0", 0},
      {"bwr", 24, mc_method::forcing, "0x1.20a0515e59f88p-23",
       "0x1.18b65f8ba8156p-24", 300},
      {"bwr", 24, mc_method::splitting, "0x0p+0", "0x0p+0", 0},
      {"bwr", 500, mc_method::crude, "0x1.a36e2eb1c432dp-15",
       "0x1.a36e2eb1c432dp-15", 1},
      {"bwr", 500, mc_method::forcing, "0x1.41538092b973fp-13",
       "0x1.7c71c70d4e568p-15", 736},
      {"bwr", 500, mc_method::splitting, "0x1.9ac24b0ec9045p-15",
       "0x1.9ac24b0ec9048p-15", 78},
      {"cooling", 24, mc_method::crude, "0x1.6f0068db8bac7p-12",
       "0x1.1562b101a0166p-13", 7},
      {"cooling", 24, mc_method::forcing, "0x1.cb2ffbf2ac9fp-12",
       "0x1.2007d27b08e97p-13", 2357},
      {"cooling", 24, mc_method::splitting, "0x1.4368854d4122ep-12",
       "0x1.7f20a88a76385p-15", 5616},
      {"cooling", 500, mc_method::crude, "0x1.460aa64c2f838p-7",
       "0x1.6ff6e74698fbcp-11", 199},
      {"cooling", 500, mc_method::forcing, "0x1.50d946792df72p-7",
       "0x1.82434e04ed2fdp-11", 3628},
      {"cooling", 500, mc_method::splitting, "0x1.6d4d4122d719dp-7",
       "0x1.8ea0cf5d5dbbap-11", 6656},
      {"voting", 24, mc_method::crude, "0x1.d7dbf487fcb92p-11",
       "0x1.bcaf1a956c9c3p-13", 18},
      {"voting", 24, mc_method::forcing, "0x1.1ebab098f8877p-10",
       "0x1.f76c04b712e3fp-13", 2776},
      {"voting", 24, mc_method::splitting, "0x1.1deacafb74a3ap-10",
       "0x1.ab7722d862ea8p-13", 6656},
      {"voting", 500, mc_method::crude, "0x1.f8a0902de00d2p-6",
       "0x1.40456b3927e91p-10", 616},
      {"voting", 500, mc_method::forcing, "0x1.ee26f39ca7764p-6",
       "0x1.71cc7b909a835p-10", 5324},
      {"voting", 500, mc_method::splitting, "0x1.0321535048b5cp-5",
       "0x1.e3d935a2c3aa3p-10", 6656},
  };
  const std::vector<std::pair<const char*, sd_fault_tree>> models = {
      {"bwr", load_data_model("bwr.sdft")},
      {"cooling", load_data_model("cooling.sdft")},
      {"voting", parse_sd_fault_tree_string(kVotingModel)}};
  std::size_t row = 0;
  for (const auto& [name, tree] : models) {
    for (double horizon : {24.0, 500.0}) {
      for (mc_method method :
           {mc_method::crude, mc_method::forcing, mc_method::splitting}) {
        const mc_result r = run_mc(tree, horizon, method, 20'000, 7);
        ASSERT_LT(row, expected.size());
        const pinned& e = expected[row++];
        SCOPED_TRACE(std::string(name) + " " + to_string(method));
        EXPECT_EQ(e.model, std::string(name));
        EXPECT_EQ(e.horizon, horizon);
        EXPECT_EQ(e.method, method);
        EXPECT_EQ(hex(r.estimate), e.estimate);
        EXPECT_EQ(hex(r.std_error), e.std_error);
        EXPECT_EQ(r.failures, e.failures);
      }
    }
  }
  EXPECT_EQ(row, expected.size());

  const std::vector<std::size_t> simulated = {3, 229, 633};
  std::size_t i = 0;
  for (const auto& [name, tree] : models) {
    simulation_options so;
    so.runs = 20'000;
    so.seed = 3;
    const std::size_t failures =
        simulate_failure_probability(tree, 500.0, so).failures;
    ASSERT_LT(i, simulated.size());
    EXPECT_EQ(failures, simulated[i++]) << name;
  }
}

TEST(McBackend, RejectsZeroTrajectories) {
  const sd_fault_tree tree = testing::example3_sd();
  mc_options opts;
  opts.trajectories = 0;
  EXPECT_THROW(sim::estimate_failure_probability_mc(tree, 1.0, opts),
               model_error);
}

TEST(McBackend, RejectsNegativeOrNonFiniteHorizon) {
  // Covers both callers: the engine's mc backend and the crude simulator
  // behind `sdft simulate`, which has no horizon check of its own.
  const sd_fault_tree tree = testing::example3_sd();
  mc_options opts;
  opts.trajectories = 16;
  for (double horizon : {-5.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(sim::estimate_failure_probability_mc(tree, horizon, opts),
                 model_error)
        << horizon;
  }
  EXPECT_THROW(simulate_failure_probability(tree, -5.0, {}), model_error);
  EXPECT_NO_THROW(sim::estimate_failure_probability_mc(tree, 0.0, opts));
}

TEST(McBackend, ParsesMethodNames) {
  mc_method m = mc_method::crude;
  EXPECT_TRUE(sim::parse_mc_method("forcing", m));
  EXPECT_EQ(m, mc_method::forcing);
  EXPECT_TRUE(sim::parse_mc_method("splitting", m));
  EXPECT_EQ(m, mc_method::splitting);
  EXPECT_TRUE(sim::parse_mc_method("crude", m));
  EXPECT_EQ(m, mc_method::crude);
  EXPECT_FALSE(sim::parse_mc_method("metropolis", m));
}

}  // namespace
}  // namespace sdft
