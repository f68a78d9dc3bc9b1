// Scenario-engine tests: the .etree parser (round trip, line-numbered
// errors), bit-agreement of the one-pass engine with per-sequence one-shot
// compilations, the CCF beta/alpha closed forms (exact and MCS-approx),
// the UQ layer's seed/thread determinism, point re-evaluation off the
// compiled structure, concurrent reads of one frozen scenario, the compile
// counters at every thread count, and the prefix-trie cutset recombination
// against the per-sequence loop it replaced (lists, counters and the 2^20
// guard).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "engine/scenario.hpp"
#include "etree/event_tree.hpp"
#include "etree/scenario.hpp"
#include "ft/ccf.hpp"
#include "gen/industrial.hpp"
#include "sim/stream_rng.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sdft::testing {

/// The scenario engine's cutset recombination before the prefix-trie walk,
/// kept as the differential oracle of recombine_sequence_cutsets(): every
/// sequence rebuilds {IE} x its failed gates' lists from scratch, pruning
/// as the product grows and minimising once at the end. Serial; `merges`,
/// when given, counts the pairs it merges.
std::vector<std::vector<cutset>> reference_sequence_cutsets(
    const event_tree& et, const gate_cutset_lists& gate_cutsets,
    double cutoff, std::size_t* merges = nullptr) {
  constexpr std::size_t max_recombined_cutsets = std::size_t{1} << 20;
  const std::size_t num_seq = et.num_sequences();
  std::vector<std::vector<cutset>> seq_cutsets(num_seq);
  for (std::size_t s = 0; s < num_seq; ++s) {
    std::vector<cutset> combos{{et.initiating_event()}};
    const auto& outcomes = et.sequence_outcomes(s);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i] != branch_outcome::failure) continue;
      const auto& gate_list = gate_cutsets.at(et.functional_gate(i));
      std::vector<cutset> next;
      next.reserve(combos.size());
      for (const auto& base : combos) {
        for (const auto& add : gate_list) {
          if (merges != nullptr) ++*merges;
          cutset merged = base;
          merged.insert(merged.end(), add.begin(), add.end());
          std::sort(merged.begin(), merged.end());
          merged.erase(std::unique(merged.begin(), merged.end()),
                       merged.end());
          if (cutoff > 0.0 && cutset_probability(et.ft(), merged) < cutoff) {
            continue;
          }
          next.push_back(std::move(merged));
        }
        require_model(next.size() <= max_recombined_cutsets,
                      "scenario: sequence " + std::to_string(s) +
                          " recombines to more than " +
                          std::to_string(max_recombined_cutsets) +
                          " cutsets; set a relevance cutoff");
      }
      combos = std::move(next);
    }
    seq_cutsets[s] = minimize_cutsets(std::move(combos));
  }
  return seq_cutsets;
}

}  // namespace sdft::testing

namespace sdft {
namespace {

/// The small demo scenario most tests share: IE, then two redundant pumps
/// behind an AND, then a backup system. No CCF / UQ unless a test adds it.
std::string demo_text(const std::string& extra = "") {
  return R"(be IE 1e-2
be PUMP_A 2e-3
be PUMP_B 2e-3
be BACKUP 5e-3
be VALVE 1e-3
and SYS1_F PUMP_A PUMP_B
or SYS2_F BACKUP VALVE
or TOP SYS1_F SYS2_F
top TOP

etree DEMO
initiating IE
functional S1 SYS1_F
functional S2 SYS2_F
sequence OK S -
sequence OK F S
sequence CD F F
)" + extra;
}

TEST(ScenarioParser, RoundTrip) {
  const scenario_model m = parse_scenario_string(demo_text(
      "ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n"
      "dist BACKUP lognormal 3\n"
      "dist VALVE uniform 1e-4 1e-2\n"
      "dist IE point\n"));
  EXPECT_EQ(m.scenario.name, "DEMO");
  EXPECT_EQ(m.scenario.initiating_event, "IE");
  ASSERT_EQ(m.scenario.functional.size(), 2u);
  EXPECT_EQ(m.scenario.functional[0].name, "S1");
  EXPECT_EQ(m.scenario.functional[1].gate, "SYS2_F");
  ASSERT_EQ(m.scenario.sequences.size(), 3u);
  EXPECT_EQ(m.scenario.sequences[2].end_state, "CD");
  EXPECT_EQ(m.scenario.sequences[0].outcomes,
            (std::vector<branch_outcome>{branch_outcome::success,
                                         branch_outcome::bypass}));
  ASSERT_EQ(m.scenario.ccf.size(), 1u);
  EXPECT_EQ(m.scenario.ccf[0].members,
            (std::vector<std::string>{"PUMP_A", "PUMP_B"}));
  ASSERT_EQ(m.scenario.distributions.size(), 3u);
  EXPECT_EQ(m.scenario.distributions[0].model,
            parameter_distribution::kind::lognormal);
  EXPECT_NE(m.tree.structure().find("SYS1_F"), fault_tree::npos);
}

TEST(ScenarioParser, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    try {
      (void)parse_scenario_string(text);
      FAIL() << "expected model_error containing '" << fragment << "'";
    } catch (const model_error& e) {
      EXPECT_NE(std::string(e.what()).find("scenario parse error"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  // Bad outcome token: the sequence sits on line 8 of this text.
  expect_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating IE\n"
      "functional F G\nsequence CD X\n",
      "outcome must be F, S or -");
  expect_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating IE\n"
      "functional F G\nsequence CD X\n",
      "line 9");
  expect_error("be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\nfrobnicate\n",
               "line 7");
  expect_error("be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n",
               "missing 'etree");
}

TEST(ScenarioEngine, MatchesPerSequenceOneShots) {
  // The shared multi-root compilation must not move a single bit relative
  // to one event_tree_bdd per sequence (BDD operations are canonical).
  const scenario_model m = parse_scenario_string(demo_text());
  const fault_tree& ft = m.tree.structure();

  event_tree et(ft, ft.find("IE"), "DEMO");
  et.add_functional_event("S1", ft.find("SYS1_F"));
  et.add_functional_event("S2", ft.find("SYS2_F"));
  for (const auto& s : m.scenario.sequences) {
    et.add_sequence(s.outcomes, s.end_state);
  }

  const scenario_result r = run_scenario(m);
  ASSERT_EQ(r.sequences.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(r.sequences[s].probability, sequence_probability_exact(et, s))
        << "sequence " << s;
  }
  ASSERT_EQ(r.end_states.size(), 2u);
  EXPECT_EQ(r.end_states[0].name, "OK");
  EXPECT_EQ(r.end_states[0].probability,
            end_state_probability_exact(et, "OK"));
  EXPECT_EQ(r.end_states[1].probability,
            end_state_probability_exact(et, "CD"));
  EXPECT_EQ(r.initiating_probability, 1e-2);
  // Sequences partition {IE occurs}.
  EXPECT_NEAR(r.sequences[0].probability + r.sequences[1].probability +
                  r.sequences[2].probability,
              1e-2, 1e-15);
  EXPECT_EQ(r.stats.scenario_sequences, 3u);
  // Built bottom-up, the three sequences share no suffix product: the
  // last events' outcomes (-, S, F) put each in its own partition.
  EXPECT_EQ(r.stats.scenario_prefix_hits, 0u);
}

TEST(ScenarioEngine, CcfBetaFactorClosedForm) {
  // Beta-factor on the redundant pumps: each member splits into an
  // independent part (1-beta)Q and the shared group event beta*Q, so
  //   P(SYS1_F) = p_ccf + (1 - p_ccf) * p_i^2.
  scenario_model m = parse_scenario_string(
      demo_text("ccf-beta PUMPS 0.25 PUMP_A PUMP_B\n"));
  const scenario_result r = run_scenario(std::move(m));

  const double q = 2e-3, beta = 0.25;
  const double p_i = (1 - beta) * q, p_ccf = beta * q;
  const double p_sys1 = p_ccf + (1 - p_ccf) * p_i * p_i;
  const double p_sys2 = 1 - (1 - 5e-3) * (1 - 1e-3);
  // Sequence CD = IE and SYS1_F and SYS2_F; the two systems share no
  // events, so the exact probability factorizes.
  EXPECT_NEAR(r.sequences[2].probability, 1e-2 * p_sys1 * p_sys2,
              1e-18);
  EXPECT_EQ(r.stats.ccf_groups, 1u);
  EXPECT_EQ(r.stats.ccf_events_added, 1u);
  EXPECT_EQ(r.stats.ccf_members_expanded, 2u);

  // MCS column: the recombined cutsets of CD are {IE, x, y} for x a SYS1
  // contributor (PUMPS_CCF or the pair of independents) and y a SYS2 one;
  // the rare-event sum is the product of per-system rare-event sums times
  // p(IE).
  const double res1 = p_ccf + p_i * p_i;
  const double res2 = 5e-3 + 1e-3;
  EXPECT_NEAR(r.sequences[2].mcs_probability, 1e-2 * res1 * res2, 1e-18);
  EXPECT_GT(r.sequences[2].num_cutsets, 0u);
}

TEST(ScenarioEngine, CcfAlphaFactorClosedForm) {
  // Alpha-factor, n = 2, non-staggered: Q1 = alpha1/alpha_t * Q and
  // Q2 = 2 alpha2/alpha_t * Q with alpha_t = alpha1 + 2 alpha2.
  scenario_model m = parse_scenario_string(
      demo_text("ccf-alpha PUMPS 0.95,0.05 PUMP_A PUMP_B\n"));
  const scenario_result r = run_scenario(std::move(m));

  const double q = 2e-3, a1 = 0.95, a2 = 0.05;
  const double at = a1 + 2 * a2;
  const double q1 = a1 / at * q, q2 = 2 * a2 / at * q;
  const double p_sys1 = q2 + (1 - q2) * q1 * q1;
  const double p_sys2 = 1 - (1 - 5e-3) * (1 - 1e-3);
  EXPECT_NEAR(r.sequences[2].probability, 1e-2 * p_sys1 * p_sys2, 1e-18);
  EXPECT_NEAR(r.sequences[2].mcs_probability,
              1e-2 * (q2 + q1 * q1) * (5e-3 + 1e-3), 1e-18);
}

TEST(ScenarioEngine, CcfExactVsMcsApproxOrdering) {
  // The rare-event MCS sum must dominate the exact sequence probability
  // (success branches dropped, rare-event >= exact union on positive
  // products) while staying close for these small probabilities.
  scenario_model m = parse_scenario_string(
      demo_text("ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n"));
  const scenario_result r = run_scenario(std::move(m));
  for (const auto& s : r.sequences) {
    if (s.end_state != "CD") continue;
    EXPECT_GE(s.mcs_probability, s.probability - 1e-18) << s.label;
    EXPECT_LT(s.mcs_probability, s.probability * 1.01) << s.label;
  }
}

TEST(ScenarioEngine, UncertaintyIsSeedAndThreadDeterministic) {
  const std::string text = demo_text(
      "dist BACKUP lognormal 3\n"
      "dist PUMP_A uniform 1e-4 1e-2\n");

  scenario_options opts;
  opts.uq_samples = 128;
  opts.uq_seed = 42;
  opts.analysis.threads = 8;
  const scenario_result a =
      run_scenario(parse_scenario_string(text), opts);
  const scenario_result b =
      run_scenario(parse_scenario_string(text), opts);

  scenario_options serial = opts;
  serial.analysis.threads = 1;
  serial.analysis.inline_execution = true;
  const scenario_result c =
      run_scenario(parse_scenario_string(text), serial);

  ASSERT_EQ(a.sequences.size(), 3u);
  for (std::size_t s = 0; s < a.sequences.size(); ++s) {
    // Same seed -> identical bands; counter-based substreams make the
    // draws independent of scheduling, so serial == 8 threads bit for bit.
    EXPECT_EQ(a.sequences[s].uq.mean, b.sequences[s].uq.mean);
    EXPECT_EQ(a.sequences[s].uq.p50, b.sequences[s].uq.p50);
    EXPECT_EQ(a.sequences[s].uq.mean, c.sequences[s].uq.mean);
    EXPECT_EQ(a.sequences[s].uq.p05, c.sequences[s].uq.p05);
    EXPECT_EQ(a.sequences[s].uq.p50, c.sequences[s].uq.p50);
    EXPECT_EQ(a.sequences[s].uq.p95, c.sequences[s].uq.p95);
    // Bands are ordered and non-degenerate on the perturbed sequences.
    EXPECT_LE(a.sequences[s].uq.p05, a.sequences[s].uq.p50);
    EXPECT_LE(a.sequences[s].uq.p50, a.sequences[s].uq.p95);
  }
  // The CD sequence depends on PUMP_A: its band must actually spread.
  EXPECT_LT(a.sequences[2].uq.p05, a.sequences[2].uq.p95);
  EXPECT_EQ(a.stats.uq_samples, 128u);
  EXPECT_EQ(a.stats.uq_parameters, 2u);

  // A different seed must move the bands.
  scenario_options reseeded = opts;
  reseeded.uq_seed = 43;
  const scenario_result d =
      run_scenario(parse_scenario_string(text), reseeded);
  EXPECT_NE(a.sequences[2].uq.mean, d.sequences[2].uq.mean);
}

TEST(ScenarioEngine, UncertaintyCoversCcfParameters) {
  // A distribution on a CCF member propagates through the trace: both the
  // independent parts and the shared event scale with the drawn Q, so the
  // CD band spreads even though the expanded events are derived.
  const std::string text = demo_text(
      "ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n"
      "dist PUMP_A lognormal 5\n");
  scenario_options opts;
  opts.uq_samples = 64;
  const scenario_result r = run_scenario(parse_scenario_string(text), opts);
  EXPECT_LT(r.sequences[2].uq.p05, r.sequences[2].uq.p95);
}

TEST(ScenarioEngine, EvaluatePointsMatchesRebuiltModel) {
  scenario_engine engine(parse_scenario_string(demo_text()));

  sweep_description desc;
  sweep_description::named_point pt;
  pt.overrides.emplace_back("BACKUP", 2e-2);
  desc.points.push_back(pt);
  const auto points = engine.evaluate_points(desc);
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].sequence_probabilities.size(), 3u);

  // A model rebuilt with the overridden probability must agree bit for
  // bit: point evaluation only swaps leaf probabilities under the same
  // compiled structure.
  const scenario_result rebuilt = run_scenario(parse_scenario_string(
      "be IE 1e-2\nbe PUMP_A 2e-3\nbe PUMP_B 2e-3\nbe BACKUP 2e-2\n"
      "be VALVE 1e-3\nand SYS1_F PUMP_A PUMP_B\nor SYS2_F BACKUP VALVE\n"
      "or TOP SYS1_F SYS2_F\ntop TOP\n\netree DEMO\ninitiating IE\n"
      "functional S1 SYS1_F\nfunctional S2 SYS2_F\nsequence OK S -\n"
      "sequence OK F S\nsequence CD F F\n"));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(points[0].sequence_probabilities[s],
              rebuilt.sequences[s].probability)
        << "sequence " << s;
  }
  ASSERT_EQ(points[0].end_state_probabilities.size(), 2u);
  EXPECT_EQ(points[0].end_state_probabilities[1],
            rebuilt.end_states[1].probability);
}

/// A shrunk etree_uq-style study: the first `systems` front-line systems
/// of a small generated industrial model as functional events (full
/// binary expansion, CD on two or more failures), one beta-factor CCF
/// group per system over its trains' first demand failures, and a
/// lognormal (EF 3) on every CCF member and on the initiating event.
scenario_model industrial_scenario(int systems) {
  industrial_options o;
  o.seed = 7;
  o.num_support_systems = 2;
  o.num_frontline_systems = systems;
  o.num_initiating_events = 2;
  o.sequences_per_ie = 2;
  o.components_per_train = 3;
  o.transfer_depth = 1;
  const fault_tree ft = generate_industrial(o).ft;

  scenario_description sc;
  sc.name = "IND";
  sc.initiating_event = "IE0";
  for (int k = 0; k < systems; ++k) {
    sc.functional.push_back(
        {"F" + std::to_string(k), "SYS" + std::to_string(k) + "_F"});
  }
  for (std::size_t mask = 0; mask < (std::size_t{1} << systems); ++mask) {
    scenario_description::sequence seq;
    int failures = 0;
    for (int k = 0; k < systems; ++k) {
      const bool failed = (mask >> k) & 1u;
      failures += failed ? 1 : 0;
      seq.outcomes.push_back(failed ? branch_outcome::failure
                                    : branch_outcome::success);
    }
    seq.end_state = failures >= 2 ? "CD" : "OK";
    sc.sequences.push_back(std::move(seq));
  }
  const auto lognormal = [](const std::string& event) {
    parameter_distribution d;
    d.event = event;
    d.model = parameter_distribution::kind::lognormal;
    d.error_factor = 3.0;
    return d;
  };
  for (int k = 0; k < systems; ++k) {
    ccf_group_description g;
    g.name = "CCF_SYS" + std::to_string(k);
    for (int train = 0; train < 3; ++train) {
      const std::string member = "SYS" + std::to_string(k) + "_T" +
                                 std::to_string(train) + "_C0_FTS";
      if (ft.find(member) != fault_tree::npos) g.members.push_back(member);
    }
    if (g.members.size() < 2) continue;
    for (const auto& m : g.members) sc.distributions.push_back(lognormal(m));
    sc.ccf.push_back(std::move(g));
  }
  sc.distributions.push_back(lognormal("IE0"));
  return {sd_fault_tree(ft), sc};
}

/// Independent one-shot oracle for a scenario model: expands the CCF
/// groups itself, maps original-tree probabilities through the trace, and
/// quantifies every sequence and end state with its own compilation
/// (sequence_probability_exact / end_state_probability_exact).
class one_shot_oracle {
 public:
  explicit one_shot_oracle(const scenario_model& m) : model_(m) {
    const fault_tree& original = m.tree.structure();
    std::vector<ccf_group> groups;
    for (const auto& d : m.scenario.ccf) {
      ccf_group g;
      g.name = d.name;
      g.beta = d.beta;
      for (const auto& member : d.members) {
        g.members.push_back(original.find(member));
      }
      groups.push_back(std::move(g));
    }
    expanded_ = expand_ccf_traced(original, groups);
    for (const auto& seq : m.scenario.sequences) {
      if (std::find(end_states_.begin(), end_states_.end(), seq.end_state) ==
          end_states_.end()) {
        end_states_.push_back(seq.end_state);
      }
    }
  }

  /// Every sequence, then every end state (first-appearance order), at
  /// the given original-tree node probabilities.
  std::vector<double> at(const std::vector<double>& original) const {
    fault_tree ft = expanded_.tree;
    for (node_index e = 0; e < ft.size(); ++e) {
      const ccf_trace_entry& t = expanded_.trace[e];
      if (!ft.is_basic(e) || t.source == fault_tree::npos) continue;
      ft.set_probability(
          e, std::min(std::max(t.scale * original[t.source], 0.0), 1.0));
    }
    const scenario_description& sc = model_.scenario;
    event_tree et(ft, ft.find(sc.initiating_event), sc.name);
    for (const auto& f : sc.functional) {
      et.add_functional_event(f.name, ft.find(f.gate));
    }
    for (const auto& seq : sc.sequences) {
      et.add_sequence(seq.outcomes, seq.end_state);
    }
    std::vector<double> out;
    for (std::size_t s = 0; s < et.num_sequences(); ++s) {
      out.push_back(sequence_probability_exact(et, s));
    }
    for (const auto& es : end_states_) {
      out.push_back(end_state_probability_exact(et, es));
    }
    return out;
  }

  /// Original-tree probabilities of UQ sample k: the engine's documented
  /// draw (substream (seed, k, parameter), lognormal median = base
  /// probability, sigma = ln(EF) / 1.645, Box-Muller).
  std::vector<double> drawn(std::uint64_t seed, std::size_t k) const {
    const fault_tree& original = model_.tree.structure();
    std::vector<double> p(original.size(), 0.0);
    for (node_index i = 0; i < original.size(); ++i) {
      if (original.is_basic(i)) p[i] = original.node(i).probability;
    }
    const auto& dists = model_.scenario.distributions;
    for (std::size_t d = 0; d < dists.size(); ++d) {
      const node_index node = original.find(dists[d].event);
      rng stream = sim::substream(seed, k, d);
      const double sigma =
          std::log(dists[d].error_factor) / 1.6448536269514722;
      const double u1 = stream.uniform();
      const double u2 = stream.uniform();
      const double z = std::sqrt(-2.0 * std::log(1.0 - u1)) *
                       std::cos(6.283185307179586 * u2);
      p[node] = std::min(std::max(p[node] * std::exp(sigma * z), 0.0), 1.0);
    }
    return p;
  }

 private:
  const scenario_model& model_;
  ccf_expansion expanded_;
  std::vector<std::string> end_states_;
};

TEST(ScenarioEngine, IndustrialUqAndPointsMatchOneShots) {
  // The frozen plan must reproduce, bit for bit, what per-sample one-shot
  // compilations of the expanded tree give at the drawn probabilities:
  // every UQ band and every evaluate_points() result.
  const scenario_model m = industrial_scenario(3);
  ASSERT_FALSE(m.scenario.ccf.empty());
  const one_shot_oracle oracle(m);
  scenario_options opts;
  opts.quantify_cutsets = false;
  scenario_engine engine(m, opts);

  constexpr std::size_t samples = 8;
  constexpr std::uint64_t seed = 5;
  const scenario_result r = engine.run(samples, seed);
  const std::size_t num_seq = r.sequences.size();
  const std::size_t num_roots = num_seq + r.end_states.size();
  ASSERT_EQ(num_seq, 8u);
  EXPECT_GT(r.stats.scenario_plan_nodes, 0u);
  EXPECT_LE(r.stats.scenario_plan_nodes, r.stats.scenario_bdd_nodes);

  std::vector<std::vector<double>> rows;
  for (std::size_t k = 0; k < samples; ++k) {
    rows.push_back(oracle.at(oracle.drawn(seed, k)));
  }
  for (std::size_t root = 0; root < num_roots; ++root) {
    std::vector<double> column;
    double sum = 0.0;
    for (const auto& row : rows) {
      column.push_back(row[root]);
      sum += row[root];
    }
    std::sort(column.begin(), column.end());
    const uncertainty_band& band =
        root < num_seq ? r.sequences[root].uq
                       : r.end_states[root - num_seq].uq;
    EXPECT_EQ(band.mean, sum / samples) << "root " << root;
    EXPECT_EQ(band.p05, column[0]) << "root " << root;
    EXPECT_EQ(band.p50, column[3]) << "root " << root;
    EXPECT_EQ(band.p95, column[6]) << "root " << root;
  }

  // Points: overrides on the ORIGINAL tree, one of them a CCF member.
  const fault_tree& original = m.tree.structure();
  const std::string& member = m.scenario.ccf[0].members[0];
  sweep_description desc;
  for (double q : {1e-4, 3e-3}) {
    sweep_description::named_point pt;
    pt.overrides.emplace_back(member, q);
    pt.overrides.emplace_back("IE0", q * 10);
    desc.points.push_back(pt);
  }
  const auto points = engine.evaluate_points(desc);
  ASSERT_EQ(points.size(), 2u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::vector<double> p(original.size(), 0.0);
    for (node_index n = 0; n < original.size(); ++n) {
      if (original.is_basic(n)) p[n] = original.node(n).probability;
    }
    for (const auto& [name, q] : desc.points[i].overrides) {
      p[original.find(name)] = q;
    }
    const std::vector<double> expected = oracle.at(p);
    std::vector<double> got = points[i].sequence_probabilities;
    got.insert(got.end(), points[i].end_state_probabilities.begin(),
               points[i].end_state_probabilities.end());
    EXPECT_EQ(got, expected) << "point " << i;
  }
}

TEST(ScenarioEngine, CompileCountersAtAnyThreadCount) {
  // The compile's counters describe the partitioned compilation, which the
  // tree fixes: the same at 1 (no pool), 2 and 8 threads. The 256-sequence
  // tree splits by its last two events into 4 partitions of 64 sequences,
  // each making 512 memo lookups over 128 distinct suffix products.
  const scenario_model m = industrial_scenario(8);
  scenario_options opts;
  opts.quantify_cutsets = false;
  opts.analysis.publish_metrics = false;
  opts.analysis.threads = 1;
  scenario_engine serial(m, opts);
  const engine_stats reference = serial.run(0, 1).stats;
  EXPECT_EQ(reference.scenario_prefix_hits, 4u * (512u - 128u));
  EXPECT_LE(reference.scenario_plan_nodes, reference.scenario_bdd_nodes);

  // Distinct gates, as one shared compiler of every root lowers them.
  event_tree_bdd shared(serial.compiled_event_tree());
  for (std::size_t s = 0; s < 256; ++s) shared.sequence(s);
  shared.end_state("CD");
  shared.end_state("OK");
  EXPECT_EQ(reference.scenario_gates_compiled, shared.gates_compiled());

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    opts.analysis.threads = threads;
    scenario_engine engine(m, opts);
    const engine_stats stats = engine.run(0, 1).stats;
    const std::string at = "threads=" + std::to_string(threads);
    EXPECT_EQ(stats.scenario_bdd_nodes, reference.scenario_bdd_nodes) << at;
    EXPECT_EQ(stats.scenario_plan_nodes, reference.scenario_plan_nodes) << at;
    EXPECT_EQ(stats.scenario_prefix_hits, reference.scenario_prefix_hits)
        << at;
    EXPECT_EQ(stats.scenario_gates_compiled,
              reference.scenario_gates_compiled)
        << at;
  }
}

TEST(ScenarioEngine, ConcurrentRunsAndPoints) {
  // The serve layer's use of a resident scenario: many threads calling
  // run() and evaluate_points() on one engine. Every concurrent result
  // must equal the serial one bit for bit.
  scenario_engine engine(parse_scenario_string(demo_text(
      "ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n"
      "dist BACKUP lognormal 3\n"
      "dist PUMP_A uniform 1e-4 1e-2\n")));
  sweep_description desc;
  for (double q : {1e-3, 1e-2, 5e-2}) {
    sweep_description::named_point pt;
    pt.overrides.emplace_back("VALVE", q);
    desc.points.push_back(pt);
  }
  const auto bands = [](const scenario_result& r) {
    std::vector<double> v;
    for (const auto& s : r.sequences) {
      v.insert(v.end(), {s.probability, s.mcs_probability, s.uq.mean,
                         s.uq.p05, s.uq.p50, s.uq.p95});
    }
    for (const auto& e : r.end_states) {
      v.insert(v.end(), {e.probability, e.mcs_probability, e.uq.mean,
                         e.uq.p05, e.uq.p50, e.uq.p95});
    }
    return v;
  };
  const auto flatten = [](const std::vector<scenario_point_result>& pts) {
    std::vector<double> v;
    for (const auto& p : pts) {
      v.insert(v.end(), p.sequence_probabilities.begin(),
               p.sequence_probabilities.end());
      v.insert(v.end(), p.end_state_probabilities.begin(),
               p.end_state_probabilities.end());
    }
    return v;
  };
  constexpr int threads = 4;
  constexpr int rounds = 3;
  std::vector<std::vector<double>> serial_runs;
  for (int t = 0; t < threads; ++t) {
    serial_runs.push_back(bands(engine.run(16, 100 + t)));
  }
  const std::vector<double> serial_points = flatten(engine.evaluate_points(desc));

  std::vector<std::vector<std::vector<double>>> runs(threads);
  std::vector<std::vector<std::vector<double>>> pts(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < rounds; ++round) {
        runs[t].push_back(bands(engine.run(16, 100 + t)));
        pts[t].push_back(flatten(engine.evaluate_points(desc)));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < threads; ++t) {
    ASSERT_EQ(runs[t].size(), static_cast<std::size_t>(rounds));
    for (int round = 0; round < rounds; ++round) {
      EXPECT_EQ(runs[t][round], serial_runs[t]) << "thread " << t;
      EXPECT_EQ(pts[t][round], serial_points) << "thread " << t;
    }
  }
}

TEST(ScenarioEngine, RejectsBrokenModels) {
  const auto expect_model_error = [](const std::string& text,
                                     const std::string& fragment) {
    try {
      scenario_engine engine(parse_scenario_string(text));
      FAIL() << "expected model_error containing '" << fragment << "'";
    } catch (const model_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_model_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating NOPE\n"
      "functional F G\nsequence CD F\n",
      "unknown initiating event");
  expect_model_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating IE\n"
      "functional F NOPE\nsequence CD F\n",
      "unknown gate");
  expect_model_error(demo_text("ccf-beta PUMPS 0.1 PUMP_A NOPE\n"),
                     "is not a node");
  expect_model_error(demo_text("dist NOPE lognormal 3\n"),
                     "unknown basic event");
  // CCF members lose their basic-event identity after expansion, so they
  // cannot initiate.
  expect_model_error(
      "be IE 1e-2\nbe A 1e-3\nbe B 1e-3\nand G A B\ntop G\n\netree T\n"
      "initiating A\nfunctional F G\nsequence CD F\n"
      "ccf-beta GRP 0.1 A B\n",
      "CCF group members cannot initiate");
}

TEST(ScenarioEngine, ThreadMatrixIsBitIdentical) {
  // The scenario dimension of the determinism matrix: exact and MCS
  // probabilities must be bit-identical across thread counts (the exact
  // column never touches stage 2; the MCS column goes through the engine,
  // whose MOCUS lists are canonical at any thread count).
  const std::string text =
      demo_text("ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n");

  scenario_options ref_opts;
  ref_opts.analysis.threads = 1;
  ref_opts.analysis.inline_execution = true;
  ref_opts.analysis.backend = cutset_backend::mocus;
  const scenario_result reference =
      run_scenario(parse_scenario_string(text), ref_opts);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    scenario_options opts;
    opts.analysis.threads = threads;
    const scenario_result r = run_scenario(parse_scenario_string(text), opts);
    const std::string label = "threads=" + std::to_string(threads);
    ASSERT_EQ(r.sequences.size(), reference.sequences.size()) << label;
    for (std::size_t s = 0; s < r.sequences.size(); ++s) {
      EXPECT_EQ(r.sequences[s].probability, reference.sequences[s].probability)
          << label << " sequence " << s;
      EXPECT_EQ(r.sequences[s].mcs_probability,
                reference.sequences[s].mcs_probability)
          << label << " sequence " << s;
      EXPECT_EQ(r.sequences[s].num_cutsets, reference.sequences[s].num_cutsets)
          << label << " sequence " << s;
    }
    ASSERT_EQ(r.end_states.size(), reference.end_states.size()) << label;
    for (std::size_t e = 0; e < r.end_states.size(); ++e) {
      EXPECT_EQ(r.end_states[e].probability,
                reference.end_states[e].probability)
          << label << " end state " << e;
      EXPECT_EQ(r.end_states[e].mcs_probability,
                reference.end_states[e].mcs_probability)
          << label << " end state " << e;
      EXPECT_EQ(r.end_states[e].num_cutsets,
                reference.end_states[e].num_cutsets)
          << label << " end state " << e;
    }
  }
}

/// Per-gate lists of every functional gate of `et`, as the scenario engine
/// builds them: one engine run per distinct gate at `cutoff`.
gate_cutset_lists engine_gate_lists(const event_tree& et, double cutoff) {
  analysis_engine engine;
  analysis_options opts;
  opts.cutoff = cutoff;
  opts.keep_cutset_details = true;
  opts.publish_metrics = false;
  gate_cutset_lists lists;
  for (std::size_t i = 0; i < et.num_functional_events(); ++i) {
    const node_index gate = et.functional_gate(i);
    if (lists.count(gate) != 0) continue;
    fault_tree sub = et.ft();
    sub.set_top(gate);
    lists.emplace(gate, testing::engine_cutsets(
                            engine.run(sd_fault_tree(std::move(sub)), opts)));
  }
  return lists;
}

/// recombine_sequence_cutsets() must return the reference loop's lists —
/// every set, in order — and the serial walk's counters at every thread
/// count.
void expect_matches_reference(const event_tree& et,
                              const gate_cutset_lists& lists, double cutoff,
                              const std::string& label) {
  const auto expected = testing::reference_sequence_cutsets(et, lists, cutoff);
  const sequence_cutsets serial =
      recombine_sequence_cutsets(et, lists, cutoff, nullptr);
  thread_pool pool2(2);
  thread_pool pool8(8);
  for (thread_pool* pool :
       {static_cast<thread_pool*>(nullptr), &pool2, &pool8}) {
    const sequence_cutsets got =
        recombine_sequence_cutsets(et, lists, cutoff, pool);
    const std::string at = label + " cutoff " + std::to_string(cutoff) +
                           " threads " +
                           std::to_string(pool != nullptr ? pool->size() : 1);
    EXPECT_EQ(got.lists, expected) << at;
    EXPECT_EQ(got.prefixes, serial.prefixes) << at;
    EXPECT_EQ(got.candidates, serial.candidates) << at;
  }
}

TEST(ScenarioRecombination, MatchesReferenceOnIndustrialTree) {
  // The 5-FE industrial event tree: 32 full-binary sequences, CCF groups.
  scenario_options opts;
  opts.quantify_cutsets = false;
  const scenario_engine engine(industrial_scenario(5), opts);
  const event_tree& et = engine.compiled_event_tree();
  ASSERT_EQ(et.num_sequences(), 32u);
  for (double cutoff : {1e-12, 1e-9}) {
    expect_matches_reference(et, engine_gate_lists(et, cutoff), cutoff,
                             "industrial");
  }
}

TEST(ScenarioRecombination, MatchesReferenceOnRandomTrees) {
  // Random event trees over random static trees whose gates share basic
  // events, so merged pairs overlap (make_random_event_tree). Cutoffs:
  // none, two fixed ones, and cutoffs equal to the canonical probability
  // of a recombined set — the pricing filter's boundary.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    fault_tree ft = testing::make_random_static_tree(seed, 10, 6).structure();
    const event_tree et = testing::make_random_event_tree(seed, ft);

    gate_cutset_lists lists;
    for (std::size_t i = 0; i < et.num_functional_events(); ++i) {
      const node_index gate = et.functional_gate(i);
      if (lists.count(gate) != 0) continue;
      fault_tree sub = ft;
      sub.set_top(gate);
      lists.emplace(gate, minimal_cutsets_brute_force(sub));
    }

    std::vector<double> cutoffs{0.0, 1e-3, 1e-5};
    std::vector<double> boundary;
    for (const auto& list :
         testing::reference_sequence_cutsets(et, lists, 0.0)) {
      for (const cutset& c : list) {
        if (c.size() >= 3) boundary.push_back(cutset_probability(ft, c));
      }
    }
    std::sort(boundary.begin(), boundary.end());
    if (!boundary.empty()) {
      cutoffs.push_back(boundary.front());
      cutoffs.push_back(boundary[boundary.size() / 2]);
      cutoffs.push_back(boundary.back());
    }
    for (double cutoff : cutoffs) {
      expect_matches_reference(et, lists, cutoff, label);
    }
  }
}

TEST(ScenarioRecombination, CountersShowPrefixSharing) {
  // On the 512-sequence tree the walk extends each failed-branch prefix at
  // most once and prices fewer pairs than the per-sequence loop merges.
  constexpr std::size_t systems = 9;
  constexpr double cutoff = 1e-12;
  scenario_options opts;
  opts.analysis.cutoff = cutoff;
  opts.analysis.publish_metrics = false;
  scenario_engine engine(industrial_scenario(systems), opts);
  const scenario_result r = engine.run();
  const event_tree& et = engine.compiled_event_tree();
  ASSERT_EQ(r.sequences.size(), std::size_t{1} << systems);

  std::size_t merges = 0;
  const auto reference = testing::reference_sequence_cutsets(
      et, engine_gate_lists(et, cutoff), cutoff, &merges);
  EXPECT_GT(r.stats.scenario_cutset_prefixes, 0u);
  EXPECT_LE(r.stats.scenario_cutset_prefixes, (std::size_t{1} << systems) - 1);
  EXPECT_GT(r.stats.scenario_cutset_candidates, 0u);
  EXPECT_LT(r.stats.scenario_cutset_candidates, merges);
  std::size_t total = 0;
  for (std::size_t s = 0; s < r.sequences.size(); ++s) {
    EXPECT_EQ(r.sequences[s].num_cutsets, reference[s].size()) << s;
    total += reference[s].size();
  }
  EXPECT_EQ(r.stats.scenario_sequence_cutsets, total);
}

/// A scenario whose functional event k fails an OR gate over
/// `gate_sizes[fe_gates[k]]` fresh basic events (p = 1e-3). Each string of
/// `sequences` is one sequence's outcomes, 'F' failure and 'S' success per
/// functional event; by default one sequence with every branch failed. The
/// engine runs at cutoff 0.
scenario_model or_gate_scenario(const std::vector<std::size_t>& gate_sizes,
                                const std::vector<std::size_t>& fe_gates,
                                const std::vector<std::string>& sequences = {}) {
  sd_fault_tree tree;
  tree.add_static_event("IE", 1e-2);
  std::vector<node_index> gates;
  for (std::size_t g = 0; g < gate_sizes.size(); ++g) {
    std::vector<node_index> inputs;
    for (std::size_t k = 0; k < gate_sizes[g]; ++k) {
      inputs.push_back(tree.add_static_event(
          "G" + std::to_string(g) + "_E" + std::to_string(k), 1e-3));
    }
    gates.push_back(tree.add_gate("G" + std::to_string(g),
                                  gate_type::or_gate, inputs));
  }
  tree.set_top(tree.add_gate("TOP", gate_type::or_gate, gates));
  scenario_description sc;
  sc.name = "GUARD";
  sc.initiating_event = "IE";
  for (std::size_t k = 0; k < fe_gates.size(); ++k) {
    sc.functional.push_back(
        {"F" + std::to_string(k), "G" + std::to_string(fe_gates[k])});
  }
  for (const std::string& pattern :
       sequences.empty() ? std::vector<std::string>{std::string(
                               fe_gates.size(), 'F')}
                         : sequences) {
    scenario_description::sequence seq;
    for (char c : pattern) {
      seq.outcomes.push_back(c == 'F' ? branch_outcome::failure
                                      : branch_outcome::success);
    }
    seq.end_state = "CD";
    sc.sequences.push_back(std::move(seq));
  }
  return {std::move(tree), std::move(sc)};
}

/// Each gate Gg of an or_gate_scenario() tree's single-event cutsets, in
/// canonical order.
gate_cutset_lists or_gate_lists(const fault_tree& ft,
                                const std::vector<std::size_t>& gate_sizes) {
  gate_cutset_lists lists;
  for (std::size_t g = 0; g < gate_sizes.size(); ++g) {
    std::vector<cutset>& list = lists[ft.find("G" + std::to_string(g))];
    for (std::size_t k = 0; k < gate_sizes[g]; ++k) {
      list.push_back({ft.find("G" + std::to_string(g) + "_E" +
                              std::to_string(k))});
    }
    std::sort(list.begin(), list.end());
  }
  return lists;
}

TEST(ScenarioRecombination, GuardRejectsOversizedProducts) {
  // Two disjoint 1,025-event ORs: 1025^2 minimal sets, past 2^20.
  try {
    (void)run_scenario(or_gate_scenario({1025, 1025}, {0, 1}));
    FAIL() << "expected the recombination guard to trip";
  } catch (const model_error& e) {
    EXPECT_NE(std::string(e.what()).find("recombines to more than 1048576"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("sequence 0"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioRecombination, GuardNamesTheLowestTrippingSequence) {
  // Two sequences trip in different subtrees of the trie: sequence 1 under
  // the failed F0 branch, which the serial walk extends first, and
  // sequence 0 under the succeeded one. Sequence 2 stays small. Every pool
  // size names sequence 0.
  const std::vector<std::size_t> sizes{1025, 1025, 1025};
  scenario_options opts;
  opts.quantify_cutsets = false;
  const scenario_engine engine(
      or_gate_scenario(sizes, {0, 1, 2}, {"SFF", "FFS", "SSF"}), opts);
  const event_tree& et = engine.compiled_event_tree();
  const gate_cutset_lists lists = or_gate_lists(et.ft(), sizes);
  thread_pool pool2(2);
  thread_pool pool8(8);
  for (thread_pool* pool :
       {static_cast<thread_pool*>(nullptr), &pool2, &pool8}) {
    const std::string at =
        "threads " + std::to_string(pool != nullptr ? pool->size() : 1);
    try {
      (void)recombine_sequence_cutsets(et, lists, 0.0, pool);
      ADD_FAILURE() << "expected the recombination guard to trip, " << at;
    } catch (const model_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "sequence 0 recombines to more than 1048576"),
                std::string::npos)
          << e.what() << ", " << at;
    }
  }
}

TEST(ScenarioRecombination, GuardCountsMinimisedPrefixes) {
  // The same 1,000-event OR twice, then a 2-event OR: the second step
  // builds 10^6 sets that minimise back to 1,000, so the third step stays
  // far below the guard. The per-sequence loop carried all 10^6 into the
  // third step and tripped.
  const scenario_model m = or_gate_scenario({1000, 2}, {0, 0, 1});
  const scenario_engine engine(m, {});
  const event_tree& et = engine.compiled_event_tree();
  const fault_tree& ft = et.ft();
  const gate_cutset_lists lists = or_gate_lists(ft, {1000, 2});
  std::vector<cutset> expected;
  for (const cutset& a : lists.at(ft.find("G0"))) {
    for (const cutset& b : lists.at(ft.find("G1"))) {
      cutset c{et.initiating_event(), a[0], b[0]};
      std::sort(c.begin(), c.end());
      expected.push_back(std::move(c));
    }
  }
  expected = minimize_cutsets(std::move(expected));
  ASSERT_EQ(expected.size(), 2000u);

  const sequence_cutsets got =
      recombine_sequence_cutsets(et, lists, 0.0, nullptr);
  ASSERT_EQ(got.lists.size(), 1u);
  EXPECT_EQ(got.lists[0], expected);
  EXPECT_THROW((void)testing::reference_sequence_cutsets(et, lists, 0.0),
               model_error);

  const scenario_result r = run_scenario(m);
  EXPECT_EQ(r.sequences[0].num_cutsets, 2000u);
}

}  // namespace
}  // namespace sdft
