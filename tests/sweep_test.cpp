// Sweep determinism tests: an N-point batched sweep must be bit-identical
// to N independent one-shot analyses of the perturbed trees, across
// backends, thread counts and structure-cache settings — on the BWR
// example study and a downsized annotated industrial model. Plus unit
// coverage of the sweep parsers, grid expansion and error taxonomy.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/sweep.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "test_models.hpp"

namespace sdft {
namespace {

using namespace sdft::testing;

std::vector<cutset> cutset_list(const analysis_result& result) {
  std::vector<cutset> out;
  out.reserve(result.cutsets.size());
  for (const auto& q : result.cutsets) out.push_back(q.events);
  return out;
}

sd_fault_tree bwr_tree() {
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  return make_bwr_model(with_bwr_triggers(opt, 2));
}

/// The downsized industrial study of the determinism suite.
sd_fault_tree industrial_tree() {
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  return testing::annotated_study(testing::small_industrial_model(5), 1e-18,
                                  an);
}

/// First static basic event of `tree` (SD index), for building sweeps on
/// generated models whose event names vary.
std::string first_static_event(const sd_fault_tree& tree) {
  const fault_tree& ft = tree.structure();
  for (node_index n = 0; n < ft.size(); ++n) {
    if (ft.is_basic(n) && tree.is_static(n)) {
      return ft.node(n).name;
    }
  }
  ADD_FAILURE() << "no static basic event";
  return {};
}

/// Asserts every sweep point is bit-identical to a one-shot analysis of
/// the same perturbed tree on a fresh engine.
void expect_sweep_matches_oneshots(const sd_fault_tree& tree,
                                   const sweep_spec& spec,
                                   const analysis_options& opts,
                                   const std::string& label) {
  analysis_engine engine(opts);
  const sweep_result swept = run_sweep(engine, tree, spec);
  ASSERT_EQ(swept.points.size(), spec.points.size()) << label;

  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    sd_fault_tree perturbed = tree;
    for (const auto& [e, p] : spec.points[i].overrides) {
      perturbed.structure().set_probability(e, p);
    }
    analysis_options point_opts = opts;
    if (spec.points[i].horizon > 0) point_opts.horizon = spec.points[i].horizon;
    const analysis_result fresh = analyze(perturbed, point_opts);
    EXPECT_EQ(swept.points[i].failure_probability, fresh.failure_probability)
        << label << ": point " << i << " (" << spec.points[i].label << ")";
    EXPECT_EQ(cutset_list(swept.points[i]), cutset_list(fresh))
        << label << ": point " << i;
  }
}

TEST(SweepParse, RangesGrammar) {
  const sweep_description d = parse_sweep_ranges(
      {"PUMP=0.001:0.01:3:log", "TANK=0.1:0.3:2"});
  ASSERT_EQ(d.ranges.size(), 2u);
  EXPECT_EQ(d.ranges[0].event, "PUMP");
  EXPECT_TRUE(d.ranges[0].log_scale);
  EXPECT_EQ(d.ranges[0].count, 3u);
  EXPECT_FALSE(d.ranges[1].log_scale);

  EXPECT_THROW(parse_sweep_ranges({"PUMP"}), error);
  EXPECT_THROW(parse_sweep_ranges({"PUMP=1:2"}), error);
  EXPECT_THROW(parse_sweep_ranges({"PUMP=a:b:c"}), error);
  EXPECT_THROW(parse_sweep_ranges({"PUMP=0:1:0"}), error);
  EXPECT_THROW(parse_sweep_ranges({"PUMP=0:1:2:cubic"}), error);
  EXPECT_THROW(parse_sweep_ranges({"=0:1:2"}), error);
}

TEST(SweepParse, JsonGrammar) {
  const sweep_description params = parse_sweep_json(
      R"({"params":[{"name":"A","lo":1e-4,"hi":1e-2,"n":8,"scale":"log"}]})");
  ASSERT_EQ(params.ranges.size(), 1u);
  EXPECT_EQ(params.ranges[0].count, 8u);

  const sweep_description points = parse_sweep_json(
      R"({"points":[{"overrides":{"A":0.1},"horizon":48,"label":"hi"},
                    {"overrides":{"A":0.2}}]})");
  ASSERT_EQ(points.points.size(), 2u);
  EXPECT_EQ(points.points[0].horizon, 48.0);
  EXPECT_EQ(points.points[0].label, "hi");

  EXPECT_THROW(parse_sweep_json("{}"), error);
  EXPECT_THROW(parse_sweep_json("[1,2]"), error);
  EXPECT_THROW(parse_sweep_json("{nope"), error);
  EXPECT_THROW(
      parse_sweep_json(
          R"({"points":[],"params":[],"x":1})"),
      error);
  EXPECT_THROW(
      parse_sweep_json(
          R"({"points":[{"overrides":{"A":0.1}}],
              "params":[{"name":"A","lo":0,"hi":1,"n":2}]})"),
      error);
}

TEST(SweepParse, JsonCountIsAnIntegerAtLeastOne) {
  // "n" follows serve's count rule (a non-negative integer below 2^64)
  // and must be >= 1: no truncation of 2.5, no undefined cast of 1e300.
  const auto params = [](const std::string& n) {
    return parse_sweep_json(R"({"params":[{"name":"a","lo":1e-3,"hi":1e-2,"n":)" +
                            n + "}]}");
  };
  for (const char* bad : {"2.5", "1e300", "-1", "0"}) {
    EXPECT_THROW(params(bad), error) << "n = " << bad;
  }
  const sd_fault_tree tree = example3_sd();
  EXPECT_EQ(resolve_sweep(params("3"), tree).points.size(), 3u);
}

TEST(SweepResolve, GridExpansionAndErrors) {
  const sd_fault_tree tree = example3_sd();
  sweep_description d =
      parse_sweep_ranges({"a=0.001:0.01:3:log", "c=0.1:0.2:2"});
  const sweep_spec spec = resolve_sweep(d, tree);
  ASSERT_EQ(spec.points.size(), 6u);  // 3 x 2 cartesian grid
  // Log axis endpoints are exact; the middle point is the geometric mean.
  EXPECT_EQ(spec.points[0].overrides[0].second, 0.001);
  EXPECT_EQ(spec.points[5].overrides[0].second, 0.01);
  EXPECT_NEAR(spec.points[2].overrides[0].second, std::sqrt(0.001 * 0.01),
              1e-12);
  EXPECT_EQ(spec.points[0].overrides[1].second, 0.1);
  EXPECT_EQ(spec.points[1].overrides[1].second, 0.2);
  EXPECT_FALSE(spec.points[0].label.empty());

  EXPECT_THROW(resolve_sweep(parse_sweep_ranges({"nope=0:1:2"}), tree),
               model_error);
  // b is dynamic: its parameters live in its chain.
  EXPECT_THROW(resolve_sweep(parse_sweep_ranges({"b=0:1:2"}), tree),
               model_error);
  EXPECT_THROW(resolve_sweep(parse_sweep_ranges({"a=0:2:2"}), tree),
               model_error);  // probability above 1
  EXPECT_THROW(
      resolve_sweep(parse_sweep_ranges({"a=0:1:2", "a=0:1:2"}), tree),
      model_error);  // duplicate axis
  EXPECT_THROW(resolve_sweep(parse_sweep_ranges({"a=0:0.01:3:log"}), tree),
               model_error);  // log axis needs positive bounds
  EXPECT_THROW(resolve_sweep(sweep_description{}, tree), model_error);
}

TEST(SweepDeterminism, BwrAcrossThreads) {
  const sd_fault_tree tree = bwr_tree();
  const sweep_spec spec = resolve_sweep(
      parse_sweep_ranges({"DG1_FTS=0.001:0.05:3:log", "CST=1e-7:1e-5:2:log"}),
      tree);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    analysis_options opts;
    opts.horizon = 24.0;
    opts.cutoff = 1e-12;
    opts.threads = threads;
    expect_sweep_matches_oneshots(tree, spec, opts,
                                  "bwr threads=" + std::to_string(threads));
  }
}

TEST(SweepDeterminism, IndustrialAnnotatedModel) {
  const sd_fault_tree tree = industrial_tree();
  const std::string event = first_static_event(tree);
  const sweep_spec spec = resolve_sweep(
      parse_sweep_ranges({event + "=1e-4:5e-2:4:log"}), tree);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    analysis_options opts;
    opts.horizon = 24.0;
    opts.cutoff = 1e-20;
    opts.threads = threads;
    expect_sweep_matches_oneshots(
        tree, spec, opts,
        "industrial threads=" + std::to_string(threads));
  }
}

TEST(SweepDeterminism, PerPointHorizons) {
  // Horizon-varying sweeps prime at the maximum horizon (reachability
  // probabilities are monotone in t), and every point must still match
  // its one-shot.
  const sd_fault_tree tree = example3_sd();
  sweep_description d;
  for (const double h : {6.0, 24.0, 96.0}) {
    sweep_description::named_point p;
    p.overrides.emplace_back("a", 0.005);
    p.horizon = h;
    d.points.push_back(std::move(p));
  }
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-9;
  expect_sweep_matches_oneshots(tree, resolve_sweep(d, tree), opts,
                                "per-point horizons");
}

TEST(SweepDeterminism, SharedStructureIsReused) {
  const sd_fault_tree tree = bwr_tree();
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-12;
  analysis_engine engine(opts);
  const sweep_spec spec = resolve_sweep(
      parse_sweep_ranges({"DG1_FTS=0.001:0.01:8:log"}), tree);
  const sweep_result r = run_sweep(engine, tree, spec);
  // Every point replays the primed structure: N hits, one miss (the
  // envelope prime), no per-point regeneration.
  EXPECT_EQ(r.struct_cache_hits, spec.points.size());
  EXPECT_EQ(engine.structures().misses(), 1u);
  EXPECT_EQ(r.aggregate.struct_cache_hits, spec.points.size());
  EXPECT_EQ(r.points.size(), static_cast<std::size_t>(8));
}

TEST(SweepDeterminism, RunSweepRejectsEmptySpec) {
  const sd_fault_tree tree = example3_sd();
  analysis_engine engine;
  EXPECT_THROW(run_sweep(engine, tree, sweep_spec{}), model_error);
}

}  // namespace
}  // namespace sdft
