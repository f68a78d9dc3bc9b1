// Tests of the stage-3 fast paths: symmetry lumping of exchangeable
// components in the product chain, the packed 64-bit state keys (and their
// vector-key fallback), and the interaction of both with attribution and
// the analysis engine. The central property is exactness: lumping is a
// quotient by model automorphisms, so lumped and unlumped probabilities
// agree up to roundoff.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/mcs_model.hpp"
#include "ctmc/transient.hpp"
#include "engine/engine.hpp"
#include "product/product_ctmc.hpp"
#include "test_models.hpp"
#include "util/rng.hpp"

namespace sdft {
namespace {

/// k identical standby trains behind one primary: the trains share the
/// trigger gate GP (they switch on when the primary fails) and sit
/// symmetrically under the top AND, so they form one orbit of size k.
sd_fault_tree make_standby_trains(std::size_t k, double primary_rate,
                                  double failure_rate, double repair_rate) {
  sd_fault_tree tree;
  const node_index primary =
      tree.add_dynamic_event("primary", make_repairable(primary_rate, 0.0));
  const node_index gp =
      tree.add_gate("GP", gate_type::or_gate, {primary});
  std::vector<node_index> top_inputs{gp};
  for (std::size_t i = 0; i < k; ++i) {
    const node_index train = tree.add_dynamic_event(
        "train" + std::to_string(i),
        testing::example2_pump2(failure_rate, repair_rate));
    tree.set_trigger(gp, train);
    top_inputs.push_back(train);
  }
  tree.set_top(tree.add_gate("top", gate_type::and_gate, top_inputs));
  tree.validate();
  return tree;
}

double relative_gap(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / scale;
}

TEST(Lumping, DetectsTheTrainOrbit) {
  const sd_fault_tree tree = make_standby_trains(3, 0.01, 0.002, 0.05);
  const product_ctmc lumped = build_product_ctmc(tree);
  EXPECT_EQ(lumped.lumped_orbits, 1u);
  EXPECT_EQ(lumped.lumped_components, 3u);

  product_options off;
  off.lump_symmetry = false;
  const product_ctmc full = build_product_ctmc(tree, off);
  EXPECT_EQ(full.lumped_orbits, 0u);
  EXPECT_LT(lumped.num_states(), full.num_states());
}

TEST(Lumping, QuotientGrowsPolynomiallyInK) {
  // While the primary works the trains sit fresh in standby (they can
  // only fail while on), so the reachable unlumped space is 1 + 2^k —
  // exponential in k — while the quotient is 1 + (k + 1): the number of
  // failed trains is all that matters.
  product_options off;
  off.lump_symmetry = false;
  for (std::size_t k : {2u, 3u, 4u, 5u}) {
    const sd_fault_tree tree = make_standby_trains(k, 0.01, 0.002, 0.05);
    const product_ctmc lumped = build_product_ctmc(tree);
    const product_ctmc full = build_product_ctmc(tree, off);
    EXPECT_EQ(full.num_states(), 1u + (1u << k)) << "k=" << k;
    EXPECT_EQ(lumped.num_states(), k + 2u) << "k=" << k;
  }
}

TEST(Lumping, MatchesUnlumpedProbabilityExactly) {
  // The acceptance bar of this stage: 1e-12 relative agreement between
  // lumped and unlumped solves across k and randomised rates.
  rng random(20260806);
  for (std::size_t k : {2u, 3u, 4u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const double primary_rate = random.uniform(0.005, 0.1);
      const double failure_rate = random.uniform(0.001, 0.05);
      const double repair_rate =
          random.chance(0.5) ? random.uniform(0.0, 0.2) : 0.0;
      const sd_fault_tree tree =
          make_standby_trains(k, primary_rate, failure_rate, repair_rate);

      product_options on;
      product_options off;
      off.lump_symmetry = false;
      const double horizon = random.uniform(10.0, 100.0);
      const double lumped =
          exact_failure_probability(tree, horizon, 1e-14, on);
      const double full =
          exact_failure_probability(tree, horizon, 1e-14, off);
      EXPECT_LT(relative_gap(lumped, full), 1e-12)
          << "k=" << k << " trial=" << trial << " lumped=" << lumped
          << " full=" << full;
    }
  }
}

TEST(Lumping, InitialMassSurvivesOrbitCollapse) {
  // Statics with 0 < p < 1 put mass on every orbit count class; the
  // multinomial weights must reassemble to exactly 1.
  sd_fault_tree tree;
  std::vector<node_index> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(tree.add_static_event("s" + std::to_string(i), 0.3));
  }
  inputs.push_back(tree.add_dynamic_event("x", make_repairable(0.05, 0.0)));
  tree.set_top(tree.add_gate("top", gate_type::and_gate, inputs));
  tree.validate();

  const product_ctmc lumped = build_product_ctmc(tree);
  EXPECT_EQ(lumped.lumped_orbits, 1u);
  EXPECT_EQ(lumped.lumped_components, 4u);
  EXPECT_NEAR(lumped.chain.initial_mass(), 1.0, 1e-12);

  product_options off;
  off.lump_symmetry = false;
  const double horizon = 40.0;
  EXPECT_LT(relative_gap(exact_failure_probability(tree, horizon, 1e-14),
                         exact_failure_probability(tree, horizon, 1e-14, off)),
            1e-12);
}

TEST(Lumping, AsymmetricRatesDoNotLump) {
  // Same shape, but each train gets its own failure rate: no orbit, and
  // the builder must not pretend otherwise.
  sd_fault_tree tree;
  const node_index primary =
      tree.add_dynamic_event("primary", make_repairable(0.01, 0.0));
  const node_index gp = tree.add_gate("GP", gate_type::or_gate, {primary});
  std::vector<node_index> top_inputs{gp};
  for (int i = 0; i < 3; ++i) {
    const node_index train = tree.add_dynamic_event(
        "train" + std::to_string(i),
        testing::example2_pump2(0.002 * (i + 1), 0.05));
    tree.set_trigger(gp, train);
    top_inputs.push_back(train);
  }
  tree.set_top(tree.add_gate("top", gate_type::and_gate, top_inputs));
  tree.validate();

  const product_ctmc p = build_product_ctmc(tree);
  EXPECT_EQ(p.lumped_orbits, 0u);
  EXPECT_EQ(p.lumped_components, 0u);
}

// --- Packed 64-bit state keys --------------------------------------------

TEST(PackedKeys, SameChainAsVectorKeys) {
  // Discovery is BFS in both key modes, so the chains must be
  // bit-identical: same state order, same arena, same rates.
  const sd_fault_tree tree = make_standby_trains(3, 0.01, 0.002, 0.05);
  product_options packed;
  product_options fallback;
  fallback.packed_state_keys = false;
  const product_ctmc a = build_product_ctmc(tree, packed);
  const product_ctmc b = build_product_ctmc(tree, fallback);
  EXPECT_TRUE(a.packed_keys);
  EXPECT_FALSE(b.packed_keys);
  ASSERT_EQ(a.num_states(), b.num_states());
  EXPECT_EQ(a.locals, b.locals);
  EXPECT_EQ(a.events, b.events);
  for (state_index s = 0; s < a.num_states(); ++s) {
    EXPECT_EQ(a.chain.transitions_from(s), b.chain.transitions_from(s));
    EXPECT_EQ(a.chain.initial(s), b.chain.initial(s));
    EXPECT_EQ(a.chain.failed(s), b.chain.failed(s));
  }
  EXPECT_EQ(exact_failure_probability(tree, 24.0, 1e-12, packed),
            exact_failure_probability(tree, 24.0, 1e-12, fallback));
}

TEST(PackedKeys, OverflowFallsBackToVectorKeys) {
  // 65 static components plus one dynamic need more than 64 bits, so the
  // builder must fall back even though packing was requested.
  sd_fault_tree tree;
  std::vector<node_index> inputs;
  for (int i = 0; i < 65; ++i) {
    inputs.push_back(tree.add_static_event("s" + std::to_string(i), 0.0));
  }
  inputs.push_back(tree.add_dynamic_event("x", make_repairable(0.05, 0.02)));
  tree.set_top(tree.add_gate("top", gate_type::or_gate, inputs));
  tree.validate();

  const product_ctmc p = build_product_ctmc(tree);
  EXPECT_FALSE(p.packed_keys);
  const double t = 13.0;
  EXPECT_NEAR(exact_failure_probability(tree, t),
              1.0 - std::exp(-0.05 * t), 1e-9);
}

// --- Attribution (lumping pinned off) ------------------------------------

TEST(Attribution, LumpingDisabledAndMassesSymmetric) {
  // Attribution needs per-component sinks, so the builder disables
  // lumping there: every train keeps its own sink, and exchangeable
  // trains receive (numerically) identical masses.
  const sd_fault_tree tree = make_standby_trains(3, 0.02, 0.004, 0.03);
  const double t = 48.0;
  const attribution_result attr = failure_attribution(tree, t);

  std::vector<double> train_masses;
  for (const auto& [event, mass] : attr.by_event) {
    if (tree.structure().node(event).name.rfind("train", 0) == 0) {
      train_masses.push_back(mass);
    }
  }
  ASSERT_EQ(train_masses.size(), 3u);
  EXPECT_NEAR(train_masses[0], train_masses[1], 1e-12);
  EXPECT_NEAR(train_masses[1], train_masses[2], 1e-12);

  // Total first-failure mass agrees with the (lumped) reachability.
  EXPECT_NEAR(attr.total, exact_failure_probability(tree, t), 1e-8);
}

// --- Engine integration ---------------------------------------------------

TEST(Lumping, EngineAggregatesCountersAndAgreesWithUnlumped) {
  // The engine always lumps; the unlumped reference is the whole tree's
  // product chain built with lumping off.
  const sd_fault_tree tree = make_standby_trains(3, 0.01, 0.002, 0.05);
  const double t = 24.0;
  const double eps = 1e-10;
  analysis_options opts;
  opts.horizon = t;
  opts.epsilon = eps;
  const analysis_result lumped = analyze(tree, opts);

  product_options off;
  off.lump_symmetry = false;
  const double full = exact_failure_probability(tree, t, eps, off);
  EXPECT_LT(relative_gap(lumped.failure_probability, full), 1e-10);
  EXPECT_GT(lumped.stats.lumped_orbits, 0u);
  EXPECT_GT(lumped.stats.lumped_cutsets, 0u);
  EXPECT_GT(lumped.stats.packed_key_chains, 0u);
  EXPECT_EQ(lumped.stats.vector_key_chains, 0u);
}

}  // namespace
}  // namespace sdft
