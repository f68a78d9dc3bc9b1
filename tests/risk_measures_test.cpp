#include <gtest/gtest.h>

#include <cmath>

#include "core/risk_measures.hpp"
#include "engine/engine.hpp"
#include "test_models.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

class RiskMeasuresRunningExample : public ::testing::Test {
 protected:
  RiskMeasuresRunningExample() : tree_(testing::example3_sd()) {
    analysis_options opts;
    opts.horizon = 24.0;
    result_ = analyze(tree_, opts);
  }

  sd_fault_tree tree_;
  analysis_result result_;
};

TEST_F(RiskMeasuresRunningExample, FussellVeselySumsCutsets) {
  const auto fv = fussell_vesely_sd(tree_, result_);
  // Every event appears in some cutset; FV values lie in (0, 1].
  for (node_index b : tree_.structure().basic_events()) {
    EXPECT_GT(fv.at(b), 0.0) << tree_.structure().node(b).name;
    EXPECT_LE(fv.at(b), 1.0);
  }
  // The dynamic pump events dominate the static FTS events here (their
  // 24h failure probability is ~2.4e-2 vs 3e-3).
  EXPECT_GT(fv.at(tree_.structure().find("b")),
            fv.at(tree_.structure().find("a")));
  // The tank is the least important contributor.
  for (const char* name : {"a", "b", "c", "d"}) {
    EXPECT_GT(fv.at(tree_.structure().find(name)),
              fv.at(tree_.structure().find("e")));
  }
}

TEST_F(RiskMeasuresRunningExample, RiskWithoutEventDropsContribution) {
  const node_index e = tree_.structure().find("e");
  const double without_tank = risk_without_event(result_, e);
  EXPECT_NEAR(without_tank,
              result_.failure_probability - testing::p_tank, 1e-12);
  // Removing a pump event must remove more risk than removing the tank.
  const double without_b =
      risk_without_event(result_, tree_.structure().find("b"));
  EXPECT_LT(without_b, without_tank);
}

TEST_F(RiskMeasuresRunningExample, UncertaintyBracketsPointEstimate) {
  uncertainty_options opts;
  opts.samples = 4000;
  opts.seed = 99;
  opts.error_factor = 3.0;
  const uncertainty_result u = uncertainty_analysis(result_, opts);
  EXPECT_EQ(u.samples.size(), opts.samples);
  EXPECT_LE(u.p05, u.median);
  EXPECT_LE(u.median, u.p95);
  // The median of the sampled distribution sits near the point estimate
  // (multipliers have median 1), while the mean exceeds it (lognormal
  // skew).
  EXPECT_NEAR(u.median, u.point_estimate, 0.35 * u.point_estimate);
  EXPECT_GT(u.mean, u.point_estimate);
  // With EF = 3 per event and 2-event cutsets dominating, the 90% band is
  // within about an order of magnitude around the median.
  EXPECT_LT(u.p95 / u.median, 12.0);
  EXPECT_GT(u.median / u.p05, 1.5);
}

TEST_F(RiskMeasuresRunningExample, UncertaintyIsDeterministicPerSeed) {
  uncertainty_options opts;
  opts.samples = 200;
  opts.seed = 7;
  const uncertainty_result a = uncertainty_analysis(result_, opts);
  const uncertainty_result b = uncertainty_analysis(result_, opts);
  EXPECT_EQ(a.samples, b.samples);
  opts.seed = 8;
  const uncertainty_result c = uncertainty_analysis(result_, opts);
  EXPECT_NE(a.samples, c.samples);
}

TEST_F(RiskMeasuresRunningExample, UnitErrorFactorIsDegenerate) {
  uncertainty_options opts;
  opts.samples = 50;
  opts.error_factor = 1.0;  // no uncertainty: every sample = point estimate
  const uncertainty_result u = uncertainty_analysis(result_, opts);
  EXPECT_NEAR(u.p05, u.p95, 1e-12);
  EXPECT_NEAR(u.median, u.point_estimate, 1e-12);
}

TEST(RiskMeasures, RejectsBadOptions) {
  analysis_result empty;
  uncertainty_options opts;
  opts.samples = 0;
  EXPECT_THROW(uncertainty_analysis(empty, opts), model_error);
  opts.samples = 10;
  opts.error_factor = 0.5;
  EXPECT_THROW(uncertainty_analysis(empty, opts), model_error);
}

}  // namespace
}  // namespace sdft
