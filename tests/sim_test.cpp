#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <variant>
#include <vector>

#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "product/product_ctmc.hpp"
#include "sim/simulator.hpp"
#include "sim/stream_rng.hpp"
#include "sim/trajectory.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sdft {
namespace {

TEST(Simulator, MatchesExponentialClosedForm) {
  // Single untriggered event: P = 1 - e^{-lambda t}.
  sd_fault_tree tree;
  const node_index x =
      tree.add_dynamic_event("x", make_repairable(0.05, 0.4));
  tree.set_top(tree.add_gate("top", gate_type::or_gate, {x}));
  const double t = 10.0;
  const double exact = 1.0 - std::exp(-0.05 * t);

  simulation_options opts;
  opts.runs = 60'000;
  opts.seed = 43;  // retuned for the per-trajectory stream scheme
  const simulation_result r = simulate_failure_probability(tree, t, opts);
  EXPECT_TRUE(r.consistent_with(exact))
      << r.estimate << " vs " << exact << " [" << r.ci_low << ", "
      << r.ci_high << "]";
  EXPECT_NEAR(r.estimate, exact, 5 * r.std_error);
}

TEST(Simulator, MatchesStaticProbability) {
  sd_fault_tree tree(testing::example1_static());
  const double exact =
      testing::example1_static().probability_brute_force();
  simulation_options opts;
  opts.runs = 2'000'000;  // exact ~ 1.9e-5: rare, needs many runs
  opts.seed = 7;
  const simulation_result r = simulate_failure_probability(tree, 5.0, opts);
  EXPECT_TRUE(r.consistent_with(exact))
      << r.estimate << " vs " << exact;
}

TEST(Simulator, MatchesExactProductOnRunningExample) {
  // Faster pumps than the paper's data so the failure probability is
  // large enough for a tight Monte-Carlo comparison.
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  const double t = 24.0;
  const double exact = exact_failure_probability(tree, t);
  EXPECT_GT(exact, 0.05);  // sanity: commensurate with runs below

  simulation_options opts;
  opts.runs = 40'000;
  opts.seed = 11;
  const simulation_result r = simulate_failure_probability(tree, t, opts);
  EXPECT_TRUE(r.consistent_with(exact))
      << r.estimate << " vs " << exact << " [" << r.ci_low << ", "
      << r.ci_high << "]";
}

TEST(Simulator, TriggeredSpareDelaysFailure) {
  // The spare's chain only runs once triggered: simulated failure within a
  // short horizon must be well below the always-on worst case.
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.0);
  simulation_options opts;
  opts.runs = 30'000;
  opts.seed = 3;
  const simulation_result r =
      simulate_failure_probability(tree, 24.0, opts);
  const double exact = exact_failure_probability(tree, 24.0);
  EXPECT_TRUE(r.consistent_with(exact));
}

TEST(Simulator, DeterministicPerSeed) {
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  simulation_options opts;
  opts.runs = 5'000;
  opts.seed = 123;
  const auto a = simulate_failure_probability(tree, 12.0, opts);
  const auto b = simulate_failure_probability(tree, 12.0, opts);
  EXPECT_EQ(a.failures, b.failures);
  opts.seed = 124;
  const auto c = simulate_failure_probability(tree, 12.0, opts);
  EXPECT_NE(a.failures, c.failures);
}

TEST(Simulator, ZeroHorizonOnlyCountsInitialFailures) {
  sd_fault_tree tree(testing::example1_static());
  simulation_options opts;
  opts.runs = 500'000;
  opts.seed = 5;
  const simulation_result r = simulate_failure_probability(tree, 0.0, opts);
  EXPECT_TRUE(
      r.consistent_with(testing::example1_static().probability_brute_force()));
}

TEST(Simulator, AgreesWithPipelineOnChainedTriggers) {
  // Chain: TRAIN1 triggers P2, TRAIN2 triggers P3 (the sequential-trains
  // scenario). The pipeline's rare-event sum must land on or above the
  // simulated truth.
  sd_fault_tree tree;
  const node_index f1 =
      tree.add_dynamic_event("P1", make_erlang_active(1, 0.05, 0.1));
  const node_index t1 = tree.add_gate("T1", gate_type::or_gate, {f1});
  const node_index f2 = tree.add_dynamic_event(
      "P2", make_erlang_triggered(1, 0.05, 0.1, 100.0));
  const node_index t2 = tree.add_gate("T2", gate_type::or_gate, {f2});
  const node_index f3 = tree.add_dynamic_event(
      "P3", make_erlang_triggered(1, 0.05, 0.1, 100.0));
  const node_index t3 = tree.add_gate("T3", gate_type::or_gate, {f3});
  tree.set_top(tree.add_gate("top", gate_type::and_gate, {t1, t2, t3}));
  tree.set_trigger(t1, f2);
  tree.set_trigger(t2, f3);
  tree.validate();

  const double t = 48.0;
  analysis_options aopts;
  aopts.horizon = t;
  const double pipeline = analyze(tree, aopts).failure_probability;

  simulation_options sopts;
  sopts.runs = 60'000;
  sopts.seed = 9;
  const simulation_result r = simulate_failure_probability(tree, t, sopts);
  // Single cutset: the pipeline is exact here. Use a 4-sigma band rather
  // than the strict 95% CI so the test does not flake on seed luck.
  EXPECT_NEAR(r.estimate, pipeline, 4 * r.std_error)
      << r.estimate << " vs " << pipeline;
}

TEST(Simulator, CrossValidatesStaticBwrStudy) {
  // Engine (rare-event sum over relevant MCSs) vs Monte Carlo on the
  // static BWR study. At this horizon the event probabilities are small
  // enough that the rare-event approximation sits inside the Monte-Carlo
  // confidence interval; at much longer horizons it over-approximates
  // beyond the CI by construction.
  const sd_fault_tree tree = make_bwr_model({});
  const double t = 200.0;
  analysis_options aopts;
  aopts.horizon = t;
  const double analytic = analyze(tree, aopts).failure_probability;
  EXPECT_GT(analytic, 0.0);

  simulation_options sopts;
  sopts.runs = 2'000'000;
  sopts.seed = 1;
  const simulation_result r = simulate_failure_probability(tree, t, sopts);
  EXPECT_TRUE(r.consistent_with(analytic))
      << r.estimate << " vs " << analytic << " [" << r.ci_low << ", "
      << r.ci_high << "]";
}

TEST(Simulator, CrossValidatesDynamicBwrStudy) {
  // The fully triggered dynamic BWR variant: the pipeline's per-MCS chain
  // quantification against the event simulator.
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  const sd_fault_tree tree =
      make_bwr_model(with_bwr_triggers(opt, bwr_num_triggers));
  const double t = 500.0;
  analysis_options aopts;
  aopts.horizon = t;
  aopts.cutoff = 1e-12;
  const double analytic = analyze(tree, aopts).failure_probability;
  EXPECT_GT(analytic, 0.0);

  simulation_options sopts;
  sopts.runs = 1'000'000;
  sopts.seed = 1;
  const simulation_result r = simulate_failure_probability(tree, t, sopts);
  EXPECT_TRUE(r.consistent_with(analytic))
      << r.estimate << " vs " << analytic << " [" << r.ci_low << ", "
      << r.ci_high << "]";
}

TEST(Simulator, StreamAdditivityAcrossCampaigns) {
  // Regression for the per-run seeding bug: earlier revisions walked one
  // sequential rng across all runs, so a campaign's draws depended on how
  // many runs preceded them. With per-trajectory substreams the campaigns
  // [0, n) and [n, n + m) concatenate to exactly the campaign [0, n + m).
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  simulation_options opts;
  opts.runs = 2'000;
  opts.seed = 21;
  const simulation_result whole =
      simulate_failure_probability(tree, 12.0, opts);
  opts.runs = 1'000;
  const simulation_result first =
      simulate_failure_probability(tree, 12.0, opts);
  opts.first_trajectory = 1'000;
  const simulation_result second =
      simulate_failure_probability(tree, 12.0, opts);
  EXPECT_EQ(first.failures + second.failures, whole.failures);
  EXPECT_NE(first.failures, second.failures);  // the halves truly differ
}

TEST(Simulator, PoolSizeDoesNotChangeTheCampaign) {
  // The runs spread over the pool in batches, but every run draws from its
  // own substream and the failures add up in batch order: the count and
  // the Wilson interval are bit-identical with no pool, 2 and 8 workers.
  const sd_fault_tree tree = testing::example3_sd(0.05, 0.2);
  simulation_options opts;
  opts.runs = 10'000;  // three mc batches
  opts.seed = 5;
  opts.first_trajectory = 123;
  const simulation_result serial =
      simulate_failure_probability(tree, 12.0, opts);
  ASSERT_GT(serial.failures, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    thread_pool pool(threads);
    const simulation_result r =
        simulate_failure_probability(tree, 12.0, opts, &pool);
    EXPECT_EQ(r.failures, serial.failures) << threads;
    EXPECT_EQ(r.runs, serial.runs) << threads;
    EXPECT_EQ(r.estimate, serial.estimate) << threads;
    EXPECT_EQ(r.std_error, serial.std_error) << threads;
    EXPECT_EQ(r.ci_low, serial.ci_low) << threads;
    EXPECT_EQ(r.ci_high, serial.ci_high) << threads;
  }
}

TEST(Simulator, TrajectorySubstreamsAreDecorrelated) {
  // Regression for overlapping-stream correlation: the first draws of
  // adjacent trajectory substreams must look like independent uniforms
  // (mean 1/2, variance 1/12, vanishing lag-1 autocorrelation), not like
  // shifted windows of one underlying sequence.
  constexpr int n = 20'000;
  std::vector<double> draw(n);
  for (int i = 0; i < n; ++i) {
    rng stream = sim::substream(123, static_cast<std::uint64_t>(i));
    draw[static_cast<std::size_t>(i)] = stream.uniform();
  }
  double mean = 0;
  for (double d : draw) mean += d;
  mean /= n;
  double var = 0, lag1 = 0;
  for (int i = 0; i < n; ++i) {
    var += (draw[i] - mean) * (draw[i] - mean);
    if (i + 1 < n) lag1 += (draw[i] - mean) * (draw[i + 1] - mean);
  }
  var /= n;
  lag1 /= (n - 1) * var;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
  EXPECT_LT(std::abs(lag1), 0.02);
}

/// Random SD tree for the trajectory-kernel differential test: leaves and
/// AND/OR/atleast gates are created in one interleaved sequence, each gate
/// over 2-4 distinct earlier nodes (so sub-DAGs are shared), with static,
/// repairable and triggered leaves. A triggered leaf is switched by a gate
/// created before it, so trigger and tree edges both point from older to
/// newer nodes and the model is acyclic by construction.
sd_fault_tree random_kernel_tree(std::uint64_t seed) {
  rng random(seed);
  sd_fault_tree tree;
  std::vector<node_index> nodes;
  std::vector<node_index> gates;
  const int steps = static_cast<int>(random.between(10, 18));
  for (int step = 0; step < steps; ++step) {
    const std::string name = "n" + std::to_string(step);
    const bool leaf = nodes.size() < 3 || random.chance(0.45);
    if (leaf) {
      const int kind = static_cast<int>(random.between(0, 3));
      if (kind == 0) {
        nodes.push_back(
            tree.add_static_event(name, random.uniform(0.05, 0.4)));
      } else if (kind == 1 || gates.empty()) {
        nodes.push_back(tree.add_dynamic_event(
            name, make_repairable(random.uniform(0.05, 0.5),
                                  random.uniform(0.2, 1.0))));
      } else {
        const triggered_ctmc model =
            kind == 2 ? testing::example2_pump2(random.uniform(0.05, 0.5),
                                                random.uniform(0.2, 1.0))
                      : make_erlang_triggered(
                            static_cast<int>(random.between(1, 2)),
                            random.uniform(0.05, 0.5),
                            random.uniform(0.2, 1.0), 10.0);
        const node_index e = tree.add_dynamic_event(name, model);
        tree.set_trigger(gates[random.below(gates.size())], e);
        nodes.push_back(e);
      }
      continue;
    }
    std::vector<node_index> inputs;
    const std::size_t want = static_cast<std::size_t>(random.between(2, 4));
    while (inputs.size() < std::min(want, nodes.size())) {
      const node_index pick = nodes[random.below(nodes.size())];
      if (std::find(inputs.begin(), inputs.end(), pick) == inputs.end()) {
        inputs.push_back(pick);
      }
    }
    const int type = static_cast<int>(random.between(0, 2));
    node_index g;
    if (type == 2 && inputs.size() >= 3) {
      const auto k = static_cast<std::uint32_t>(
          random.between(2, static_cast<std::int64_t>(inputs.size()) - 1));
      g = tree.structure().add_atleast_gate(name, k, inputs);
    } else {
      g = tree.add_gate(name,
                        type == 0 ? gate_type::and_gate : gate_type::or_gate,
                        inputs);
    }
    nodes.push_back(g);
    gates.push_back(g);
  }
  // The top ORs the last two gates (or the only one), so some gates and
  // trigger gates stay outside the top's sub-DAG.
  std::vector<node_index> top_inputs = {gates.back()};
  if (gates.size() > 1) top_inputs.push_back(gates[gates.size() - 2]);
  tree.set_top(tree.add_gate("top", gate_type::or_gate, top_inputs));
  tree.validate();
  return tree;
}

TEST(TrajectoryKernel, CounterPropagationMatchesFullEvaluation) {
  // Differential test of the incremental gate states: after every init()
  // and every advance() step, each node flag must equal
  // fault_tree::evaluate() of the leaf flags, each counter must equal the
  // number of failed inputs, each dynamic leaf must mirror its chain state,
  // and each triggered component must be switched as its gate demands.
  // Horizons advance in small steps so most steps see at most one jump.
  std::size_t repairs = 0;
  std::size_t switches_off = 0;
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const sd_fault_tree tree = random_kernel_tree(seed);
    const fault_tree& ft = tree.structure();
    const std::vector<node_index> leaves = ft.basic_events();
    const sim::trajectory_model model(tree);
    sim::trajectory_state s;
    std::vector<char> previous;
    std::vector<state_index> previous_locals;

    const auto check = [&](bool top_failed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " t=" +
                   std::to_string(s.now));
      ++checks;
      const std::vector<char> expected = ft.evaluate(s.node_failed);
      for (node_index v = 0; v < ft.size(); ++v) {
        ASSERT_EQ(s.node_failed[v] != 0, expected[v] != 0) << ft.node(v).name;
        std::uint32_t count = 0;
        for (node_index child : ft.node(v).inputs) {
          count += expected[child] != 0 ? 1U : 0U;
        }
        ASSERT_EQ(s.failed_inputs[v], count) << ft.node(v).name;
      }
      ASSERT_EQ(top_failed, expected[ft.top()] != 0);
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        const node_index e = leaves[i];
        if (!tree.is_dynamic(e)) continue;
        const dynamic_model& m = tree.model_of(e);
        const auto* trig = std::get_if<triggered_ctmc>(&m);
        const ctmc& chain = trig != nullptr ? trig->chain : std::get<ctmc>(m);
        ASSERT_EQ(s.node_failed[e] != 0, chain.failed(s.locals[i]));
        if (trig != nullptr) {
          const bool demanded =
              s.node_failed[tree.trigger_gate_of(e)] != 0;
          ASSERT_EQ(trig->on_state[s.locals[i]] != 0, demanded);
          if (!previous_locals.empty() &&
              trig->on_state[previous_locals[i]] != 0 && !demanded) {
            ++switches_off;
          }
        }
        if (!previous.empty() && previous[e] != 0 && s.node_failed[e] == 0) {
          ++repairs;
        }
      }
      previous = s.node_failed;
      previous_locals = s.locals;
    };

    for (std::uint64_t run = 0; run < 40; ++run) {
      rng random = sim::substream(seed, run);
      previous.clear();
      previous_locals.clear();
      bool failed = model.init(s, random);
      check(failed);
      for (double t = 0.25; !failed && t <= 30.0; t += 0.25) {
        const sim::advance_outcome outcome = model.advance(s, t, random);
        failed = outcome == sim::advance_outcome::failed;
        check(failed);
      }
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(checks, 10'000u);
  EXPECT_GT(repairs, 1000u);      // leaves flipped back to working
  EXPECT_GT(switches_off, 500u);  // triggers switched off again
}

TEST(TrajectoryKernel, ConstantGatesAndImportance) {
  // Zero-input gates are constants in the all-working base state: an
  // empty AND is failed (importance 1), an empty OR never fails.
  fault_tree ft;
  const node_index x = ft.add_basic_event("x", 0.0);
  const node_index always = ft.add_gate("always", gate_type::and_gate);
  const node_index never = ft.add_gate("never", gate_type::or_gate);
  const node_index pair =
      ft.add_gate("pair", gate_type::and_gate, {x, always});
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {pair, never}));
  const sd_fault_tree tree(std::move(ft));
  const sim::trajectory_model model(tree);
  sim::trajectory_state s;
  rng random(5);
  EXPECT_FALSE(model.init(s, random));
  EXPECT_EQ(s.node_failed[always], 1);
  EXPECT_EQ(s.node_failed[never], 0);
  EXPECT_EQ(s.failed_inputs[pair], 1u);
  EXPECT_EQ(model.importance(s), 0.5);
  EXPECT_EQ(model.depth(), 2u);
}

TEST(Simulator, RejectsZeroRuns) {
  sd_fault_tree tree(testing::example1_static());
  simulation_options opts;
  opts.runs = 0;
  EXPECT_THROW(simulate_failure_probability(tree, 1.0, opts), model_error);
}

}  // namespace
}  // namespace sdft
