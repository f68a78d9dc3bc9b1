#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"
#include "ctmc/triggered.hpp"
#include "ctmc/uniformised.hpp"
#include "test_models.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

TEST(Ctmc, BuildAndAccumulateRates) {
  ctmc chain(3);
  chain.set_initial(0, 1.0);
  chain.add_rate(0, 1, 0.5);
  chain.add_rate(0, 1, 0.25);  // accumulates
  chain.add_rate(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(chain.exit_rate(0), 1.75);
  EXPECT_DOUBLE_EQ(chain.max_exit_rate(), 1.75);
  ASSERT_EQ(chain.transitions_from(0).size(), 2u);
}

TEST(Ctmc, RejectsBadInput) {
  ctmc chain(2);
  EXPECT_THROW(chain.add_rate(0, 0, 1.0), model_error);   // self loop
  EXPECT_THROW(chain.add_rate(0, 5, 1.0), model_error);   // range
  EXPECT_THROW(chain.add_rate(0, 1, -1.0), model_error);  // negative
  EXPECT_THROW(chain.set_initial(0, 1.5), model_error);
  chain.set_initial(0, 0.5);
  EXPECT_THROW(chain.validate(), model_error);  // mass != 1
}

TEST(Ctmc, FactoryChains) {
  const ctmc rep = make_repairable(0.2, 2.0);
  rep.validate();
  EXPECT_EQ(rep.failed_states(), std::vector<state_index>{1});

  const ctmc stat = make_static_event(0.3);
  stat.validate();
  EXPECT_DOUBLE_EQ(stat.initial(1), 0.3);
  EXPECT_DOUBLE_EQ(stat.max_exit_rate(), 0.0);
}

TEST(Transient, PureFailureMatchesExponential) {
  // 2-state absorbing chain: P[fail by t] = 1 - exp(-lambda t).
  const double lambda = 0.37;
  ctmc chain = make_repairable(lambda, 0.0);
  for (double t : {0.0, 0.5, 3.0, 20.0}) {
    EXPECT_NEAR(reach_failed_probability(chain, t),
                1.0 - std::exp(-lambda * t), 1e-9)
        << "t=" << t;
  }
}

TEST(Transient, ZeroRateChainKeepsInitialDistribution) {
  const ctmc chain = make_static_event(0.25);
  const auto dist = transient_distribution(chain, 17.0);
  EXPECT_NEAR(dist[0], 0.75, 1e-12);
  EXPECT_NEAR(dist[1], 0.25, 1e-12);
  EXPECT_NEAR(reach_failed_probability(chain, 5.0), 0.25, 1e-12);
}

TEST(Transient, RepairableAvailabilityClosedForm) {
  // Transient unavailability of a repairable unit:
  // q(t) = lambda/(lambda+mu) * (1 - exp(-(lambda+mu) t)).
  const double lambda = 0.1;
  const double mu = 1.2;
  const ctmc chain = make_repairable(lambda, mu);
  for (double t : {0.3, 1.0, 4.0, 50.0}) {
    const auto dist = transient_distribution(chain, t);
    const double expected =
        lambda / (lambda + mu) * (1.0 - std::exp(-(lambda + mu) * t));
    EXPECT_NEAR(dist[1], expected, 1e-9) << "t=" << t;
  }
}

TEST(Transient, ReachBeatsTransientWithRepairs) {
  // With repairs, having *visited* the failed state is more likely than
  // being there at time t.
  const ctmc chain = make_repairable(0.2, 1.0);
  const double t = 5.0;
  const double visit = reach_failed_probability(chain, t);
  const double there = transient_distribution(chain, t)[1];
  EXPECT_GT(visit, there);
  EXPECT_LE(visit, 1.0);
}

TEST(Transient, ErlangCdfClosedForm) {
  // k-phase Erlang with rate k*lambda per phase; P[T <= t] =
  // 1 - sum_{i<k} exp(-k l t) (k l t)^i / i!.
  const int k = 4;
  const double lambda = 0.05;
  const ctmc chain = make_erlang_active(k, lambda, 0.0);
  const double t = 30.0;
  double expected = 1.0;
  double term = std::exp(-k * lambda * t);
  for (int i = 0; i < k; ++i) {
    expected -= term;
    term *= k * lambda * t / (i + 1);
  }
  EXPECT_NEAR(reach_failed_probability(chain, t), expected, 1e-9);
}

TEST(Transient, ErlangPreservesMeanTimeToFailure) {
  // Mean time to failure is 1/lambda for every phase count; at t = MTTF
  // the failure probabilities are comparable but the distributions differ.
  const double lambda = 0.01;
  const double t = 100.0;
  const double p1 =
      reach_failed_probability(make_erlang_active(1, lambda, 0.0), t);
  const double p4 =
      reach_failed_probability(make_erlang_active(4, lambda, 0.0), t);
  EXPECT_NEAR(p1, 1.0 - std::exp(-1.0), 1e-9);
  EXPECT_GT(p4, 0.3);
  EXPECT_LT(p4, p1);  // Erlang concentrates around the mean
}

TEST(Transient, DistributionSumsToOne) {
  const ctmc chain = make_erlang_active(3, 0.2, 0.5);
  const auto dist = transient_distribution(chain, 7.0);
  double sum = 0.0;
  for (double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Transient, RejectsNegativeHorizon) {
  const ctmc chain = make_repairable(0.1, 0.0);
  EXPECT_THROW(reach_failed_probability(chain, -1.0), model_error);
}

TEST(Triggered, ValidateAcceptsExamplePump) {
  EXPECT_NO_THROW(testing::example2_pump2().validate());
}

TEST(Triggered, ValidateRejectsFailedOffStates) {
  triggered_ctmc m = testing::example2_pump2();
  m.chain.set_failed(1);  // off-fail marked failed: violates F subset S_on
  EXPECT_THROW(m.validate(), model_error);
}

TEST(Triggered, ValidateRejectsInitialOnStates) {
  triggered_ctmc m = testing::example2_pump2();
  m.chain.set_initial(0, 0.0);
  m.chain.set_initial(2, 1.0);  // initial mass on an on-state
  EXPECT_THROW(m.validate(), model_error);
}

TEST(Triggered, ValidateRejectsWrongSideMaps) {
  triggered_ctmc m = testing::example2_pump2();
  m.to_on[0] = 1;  // maps off-state to off-state
  EXPECT_THROW(m.validate(), model_error);
}

TEST(Triggered, WorstCaseEqualsAlwaysOnChain) {
  // Worst case of the Example 2 pump = plain repairable chain from time 0.
  const double lambda = 1e-3;
  const double mu = 5e-2;
  const triggered_ctmc m = testing::example2_pump2(lambda, mu);
  const double t = 24.0;
  const double expected =
      reach_failed_probability(make_repairable(lambda, mu), t);
  EXPECT_NEAR(worst_case_failure_probability(m, t), expected, 1e-10);
}

TEST(Triggered, ErlangTriggeredShape) {
  const int k = 3;
  const triggered_ctmc m = make_erlang_triggered(k, 0.01, 0.1, 100.0);
  EXPECT_EQ(m.chain.num_states(), 2u * (k + 1));
  // Starts passive in phase 0.
  EXPECT_DOUBLE_EQ(m.chain.initial(k + 1), 1.0);
  // Only the active failed phase is failed.
  EXPECT_EQ(m.chain.failed_states(), std::vector<state_index>{k});
  // Passive aging is 100x slower.
  EXPECT_NEAR(m.chain.exit_rate(k + 1), k * 0.01 / 100.0, 1e-12);
  EXPECT_NEAR(m.chain.exit_rate(0), k * 0.01, 1e-12);
  // No repair while passive.
  EXPECT_TRUE(m.chain.transitions_from(2 * k + 1).empty());
}

TEST(Triggered, ZeroPassiveFactorDisablesStandbyAging) {
  const triggered_ctmc m = make_erlang_triggered(2, 0.01, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(m.chain.exit_rate(3), 0.0);  // passive phase 0
  m.validate();
}

TEST(Triggered, WorstCaseOfErlangMatchesActiveChain) {
  const triggered_ctmc trig = make_erlang_triggered(2, 0.02, 0.05, 100.0);
  const ctmc active = make_erlang_active(2, 0.02, 0.05);
  EXPECT_NEAR(worst_case_failure_probability(trig, 24.0),
              reach_failed_probability(active, 24.0), 1e-10);
}

// --- Uniformised CSR (explicit counting pass) ----------------------------

TEST(Uniformised, RowStartIsMonotoneAndConsistent) {
  // Mixed chain: a transient state, an absorbing-by-flag state with
  // outgoing rates (they must be dropped), and a rateless state.
  ctmc chain(4);
  chain.set_initial(0, 1.0);
  chain.add_rate(0, 1, 0.5);
  chain.add_rate(0, 2, 0.25);
  chain.add_rate(1, 0, 1.0);
  chain.add_rate(1, 3, 2.0);
  chain.add_rate(2, 3, 0.125);  // dropped: state 2 is made absorbing
  const std::vector<char> absorbing = {0, 0, 1, 0};
  const uniformised_dtmc dtmc(chain, absorbing);

  ASSERT_EQ(dtmc.row_start.size(), chain.num_states() + 1);
  EXPECT_EQ(dtmc.row_start.front(), 0u);
  for (std::size_t s = 0; s < chain.num_states(); ++s) {
    EXPECT_LE(dtmc.row_start[s], dtmc.row_start[s + 1]) << "row " << s;
  }
  EXPECT_EQ(dtmc.row_start.back(), dtmc.col.size());
  EXPECT_EQ(dtmc.col.size(), dtmc.value.size());

  // Row populations: 2 entries for state 0, 2 for state 1, none for the
  // absorbing state 2 or the rateless state 3.
  EXPECT_EQ(dtmc.row_start[1] - dtmc.row_start[0], 2u);
  EXPECT_EQ(dtmc.row_start[2] - dtmc.row_start[1], 2u);
  EXPECT_TRUE(dtmc.absorbing_row(2));
  EXPECT_TRUE(dtmc.absorbing_row(3));
  EXPECT_FALSE(dtmc.absorbing_row(0));
}

TEST(Uniformised, RowsAreStochasticAndAbsorbingRowsAreUnitVectors) {
  ctmc chain(3);
  chain.set_initial(0, 1.0);
  chain.set_failed(2);
  chain.add_rate(0, 1, 0.4);
  chain.add_rate(1, 2, 0.7);
  chain.add_rate(2, 0, 0.9);  // repair out of the failed state
  const std::vector<char> absorbing = {0, 0, 1};
  const uniformised_dtmc dtmc(chain, absorbing);

  for (state_index s = 0; s < chain.num_states(); ++s) {
    double row_sum = dtmc.diagonal[s];
    for (std::size_t k = dtmc.row_start[s]; k < dtmc.row_start[s + 1]; ++k) {
      EXPECT_GE(dtmc.value[k], 0.0);
      row_sum += dtmc.value[k];
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-12) << "row " << s;
    EXPECT_LE(row_sum, 1.0 + 1e-12) << "row " << s;
  }
  // The absorbing row keeps all its mass on the diagonal.
  EXPECT_DOUBLE_EQ(dtmc.diagonal[2], 1.0);
  EXPECT_TRUE(dtmc.absorbing_row(2));
}

TEST(Uniformised, DenseStepPreservesMass) {
  const ctmc chain = testing::example2_pump2(0.3, 0.7).chain;
  const std::vector<char> none(chain.num_states(), 0);
  const uniformised_dtmc dtmc(chain, none);
  std::vector<double> in(chain.num_states(), 0.0);
  in[2] = 0.75;
  in[3] = 0.25;
  std::vector<double> out(chain.num_states(), 0.0);
  dtmc.step(in, out);
  double mass = 0.0;
  for (double v : out) mass += v;
  EXPECT_NEAR(mass, 1.0 * 0.75 + 1.0 * 0.25, 1e-14);
}

// --- Early termination and steady-state detection ------------------------

TEST(Transient, EarlyTerminationMatchesFullRunOnAbsorption) {
  // Long horizon: everything is absorbed long before the Poisson window
  // closes, so the absorbed-mass bound must fire and save steps.
  ctmc chain(2);
  chain.set_initial(0, 1.0);
  chain.set_failed(1);
  chain.add_rate(0, 1, 2.0);
  const double t = 500.0;

  transient_stats stats;
  transient_controls on;
  on.stats = &stats;
  const double fast = reach_failed_probability(chain, t, 1e-10, on);

  transient_controls off;
  off.early_exit = false;
  const double slow = reach_failed_probability(chain, t, 1e-10, off);

  EXPECT_NEAR(fast, slow, 1e-10);
  EXPECT_NEAR(fast, 1.0, 1e-9);
  EXPECT_TRUE(stats.early_terminated || stats.steady_state);
  EXPECT_GT(stats.steps_saved(), 0u);
  EXPECT_LT(stats.steps_taken, stats.steps_planned);
}

TEST(Transient, SteadyStateDetectionOnRepairableChain) {
  // A fast repairable chain reaches its stationary distribution quickly;
  // with failed states *not* absorbing (plain transient distribution) the
  // iterate stops moving and steady-state detection must freeze it.
  const ctmc chain = make_repairable(4.0, 6.0);
  const double t = 200.0;

  transient_stats stats;
  transient_controls on;
  on.stats = &stats;
  const auto fast = transient_distribution(chain, t, 1e-10, on);

  transient_controls off;
  off.early_exit = false;
  const auto slow = transient_distribution(chain, t, 1e-10, off);

  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t s = 0; s < fast.size(); ++s) {
    EXPECT_NEAR(fast[s], slow[s], 1e-10);
  }
  // Stationary split is lambda/(lambda+mu) failed.
  EXPECT_NEAR(fast[1], 4.0 / 10.0, 1e-9);
  EXPECT_TRUE(stats.steady_state);
  EXPECT_GT(stats.steps_saved(), 0u);
}

TEST(Transient, LargeUniformisationProductMatchesEigenvalueClosedForm) {
  // 0 <-> 1 at rate 50 each way; 1 -> 2 (failed, absorbing) at 1e-3. The
  // survival function of the 2x2 sub-generator Q = [[-50, 50],
  // [50, -50.001]] is c1 e^{l1 t} + c2 e^{l2 t} with S(0) = 1 and
  // S'(0) = 0; the fast mode makes q*t large long before the slow mode
  // has absorbed much mass.
  ctmc chain(3);
  chain.set_initial(0, 1.0);
  chain.set_failed(2);
  chain.add_rate(0, 1, 50.0);
  chain.add_rate(1, 0, 50.0);
  chain.add_rate(1, 2, 1e-3);

  const double trace = -100.001;
  const double det = 50.0 * 50.001 - 50.0 * 50.0;
  const double l2 = (trace - std::sqrt(trace * trace - 4.0 * det)) / 2.0;
  const double l1 = det / l2;  // the small root, without cancellation
  const double c1 = l2 / (l2 - l1);
  const double c2 = -l1 / (l2 - l1);
  const double q = uniformised_dtmc(chain, {0, 0, 1}).q;

  for (const double qt : {1e3, 1e4, 1e5}) {
    const double t = qt / q;
    const double expected =
        -c1 * std::expm1(l1 * t) - c2 * std::expm1(l2 * t);
    for (const bool early_exit : {true, false}) {
      transient_controls controls;
      controls.early_exit = early_exit;
      EXPECT_NEAR(reach_failed_probability(chain, t, 1e-10, controls),
                  expected, 1e-9)
          << "q*t " << qt << (early_exit ? " early exit" : " full window");
    }
  }
}

TEST(Transient, ControlsOffReproducesPlannedStepCount) {
  const ctmc chain = make_repairable(0.5, 0.25);
  transient_stats stats;
  transient_controls off;
  off.early_exit = false;
  off.stats = &stats;
  (void)reach_failed_probability(chain, 8.0, 1e-10, off);
  EXPECT_EQ(stats.steps_taken, stats.steps_planned);
  EXPECT_FALSE(stats.early_terminated);
  EXPECT_FALSE(stats.steady_state);
  EXPECT_EQ(stats.steps_saved(), 0u);
  EXPECT_GT(stats.peak_frontier, 0u);
}

}  // namespace
}  // namespace sdft
