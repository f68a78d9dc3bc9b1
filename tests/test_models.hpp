#pragma once

// Shared model builders for the test suite: the paper's running example
// (Examples 1-7), small structures exercising the trigger classes of
// Figure 1 / Example 9, seeded random fault- and event-tree generators for
// property, determinism and differential tests, downsized §VI-B industrial
// studies, and the BDD oracle for stage-2 cutset lists.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bdd/ft_bdd.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/triggered.hpp"
#include "engine/engine.hpp"
#include "etree/event_tree.hpp"
#include "ft/fault_tree.hpp"
#include "gen/industrial.hpp"
#include "mcs/cutset.hpp"
#include "mcs/importance.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "sdft/translate.hpp"
#include "util/rng.hpp"

namespace sdft::testing {

/// Probabilities of the running example (paper Example 1).
inline constexpr double p_fts = 3e-3;   // pumps failing to start (a, c)
inline constexpr double p_fio = 1e-3;   // pumps failing in operation (b, d)
inline constexpr double p_tank = 3e-6;  // water tank (e)

/// The static fault tree of Example 1:
///   COOLING = OR(e, PUMPS), PUMPS = AND(PUMP1, PUMP2),
///   PUMP1 = OR(a, b), PUMP2 = OR(c, d).
inline fault_tree example1_static() {
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", p_fts);
  const node_index b = ft.add_basic_event("b", p_fio);
  const node_index c = ft.add_basic_event("c", p_fts);
  const node_index d = ft.add_basic_event("d", p_fio);
  const node_index e = ft.add_basic_event("e", p_tank);
  const node_index pump1 = ft.add_gate("PUMP1", gate_type::or_gate, {a, b});
  const node_index pump2 = ft.add_gate("PUMP2", gate_type::or_gate, {c, d});
  const node_index pumps =
      ft.add_gate("PUMPS", gate_type::and_gate, {pump1, pump2});
  ft.set_top(ft.add_gate("COOLING", gate_type::or_gate, {e, pumps}));
  return ft;
}

/// The triggered CTMC of the second pump (paper Example 2): states
/// off-ok(0), off-fail(1), on-ok(2), on-fail(3); failure only while on,
/// repair both while on and while off ("a failed pump is being repaired
/// even if it is not required at the moment").
inline triggered_ctmc example2_pump2(double failure_rate = 1e-3,
                                     double repair_rate = 5e-2) {
  triggered_ctmc m;
  m.chain = ctmc(4);
  m.chain.set_initial(0, 1.0);
  m.chain.set_failed(3);
  m.chain.add_rate(2, 3, failure_rate);
  m.chain.add_rate(3, 2, repair_rate);
  m.chain.add_rate(1, 0, repair_rate);
  m.on_state = {0, 0, 1, 1};
  m.to_on = {2, 3, 0, 0};
  m.to_off = {0, 0, 0, 1};
  m.validate();
  return m;
}

/// The SD fault tree of Example 3: a, c, e static; b a repairable
/// untriggered chain; d the triggered chain of Example 2, triggered by the
/// failure of gate PUMP1.
inline sd_fault_tree example3_sd(double failure_rate = 1e-3,
                                 double repair_rate = 5e-2) {
  sd_fault_tree tree;
  const node_index a = tree.add_static_event("a", p_fts);
  const node_index b = tree.add_dynamic_event(
      "b", make_repairable(failure_rate, repair_rate));
  const node_index c = tree.add_static_event("c", p_fts);
  const node_index d = tree.add_dynamic_event(
      "d", example2_pump2(failure_rate, repair_rate));
  const node_index e = tree.add_static_event("e", p_tank);
  const node_index pump1 =
      tree.add_gate("PUMP1", gate_type::or_gate, {a, b});
  const node_index pump2 =
      tree.add_gate("PUMP2", gate_type::or_gate, {c, d});
  const node_index pumps =
      tree.add_gate("PUMPS", gate_type::and_gate, {pump1, pump2});
  tree.set_top(tree.add_gate("COOLING", gate_type::or_gate, {e, pumps}));
  tree.set_trigger(pump1, d);
  tree.validate();
  return tree;
}

/// Chained trains whose triggering gates fall in the general case with a
/// static guard (paper Example 10, repeated): per train i, repairable
/// chains a_i, b_i, c_i and a static guard d_i;
/// G_i = AND(OR(a_i, b_i, e_{i-1}), OR(c_i, d_i)) triggers e_i, and
/// TRAIN_i = AND(a_i, c_i, e_i) feeds the top OR. Modelling e_i pulls the
/// triggered e_{i-1} into FT_C, so every earlier gate is modelled too.
/// Every guard has probability `guard`; every rate is scaled by
/// `rate_scale`. Dynamic events carry a reference probability of 0.1, so
/// a probability cutoff applied to the SD tree's events would keep their
/// sets and prune only those with a tiny guard.
inline sd_fault_tree guarded_trains_sd(std::size_t trains = 3,
                                       double guard = 0.05,
                                       double rate_scale = 1.0) {
  sd_fault_tree tree;
  std::vector<node_index> top_inputs;
  node_index previous = fault_tree::npos;
  for (std::size_t i = 0; i < trains; ++i) {
    const std::string n = std::to_string(i);
    const auto chain = [&](const char* name, double rate) {
      return tree.add_dynamic_event(
          name + n, make_repairable(rate * rate_scale, 0.3 * rate_scale),
          0.1);
    };
    const node_index a = chain("a", 0.03);
    const node_index b = chain("b", 0.02);
    const node_index c = chain("c", 0.03);
    const node_index d = tree.add_static_event("d" + n, guard);
    std::vector<node_index> starters = {a, b};
    if (previous != fault_tree::npos) starters.push_back(previous);
    const node_index g = tree.add_gate(
        "G" + n, gate_type::and_gate,
        {tree.add_gate("S" + n, gate_type::or_gate, starters),
         tree.add_gate("R" + n, gate_type::or_gate, {c, d})});
    const node_index e = tree.add_dynamic_event(
        "e" + n, example2_pump2(0.1 * rate_scale, 0.3 * rate_scale), 0.1);
    tree.set_trigger(g, e);
    top_inputs.push_back(
        tree.add_gate("TRAIN" + n, gate_type::and_gate, {a, c, e}));
    previous = e;
  }
  tree.set_top(tree.add_gate("top", gate_type::or_gate, top_inputs));
  tree.validate();
  return tree;
}

/// Random SD fault tree with a guaranteed-acyclic trigger structure:
/// the events are split into a "source" half (static + untriggered
/// dynamic, combined by a random subtree) and a "target" half (whose
/// dynamic events may be triggered by gates of the source subtree).
struct random_sd_tree {
  sd_fault_tree tree;
  std::size_t num_triggered = 0;
};

inline random_sd_tree make_random_sd_tree(std::uint64_t seed) {
  rng random(seed);
  random_sd_tree out;
  sd_fault_tree& tree = out.tree;

  const auto random_gate_type = [&] {
    return random.chance(0.5) ? gate_type::and_gate : gate_type::or_gate;
  };

  // Source half: 3 leaves (static or untriggered dynamic), 2 gates.
  std::vector<node_index> source_pool;
  for (int i = 0; i < 3; ++i) {
    if (random.chance(0.5)) {
      source_pool.push_back(tree.add_static_event(
          "s" + std::to_string(i), random.uniform(0.02, 0.3)));
    } else {
      source_pool.push_back(tree.add_dynamic_event(
          "x" + std::to_string(i),
          make_repairable(random.uniform(0.02, 0.1),
                          random.chance(0.5) ? random.uniform(0.0, 0.3)
                                             : 0.0)));
    }
  }
  std::vector<node_index> source_gates;
  for (int g = 0; g < 2; ++g) {
    std::vector<node_index> inputs;
    for (int i = 0, n = static_cast<int>(random.between(2, 3)); i < n; ++i) {
      inputs.push_back(source_pool[random.below(source_pool.size())]);
    }
    const node_index gate = tree.add_gate("sg" + std::to_string(g),
                                          random_gate_type(), inputs);
    source_pool.push_back(gate);
    source_gates.push_back(gate);
  }

  // Target half: 3 leaves, dynamic ones may be triggered by source gates.
  std::vector<node_index> target_pool;
  for (int i = 0; i < 3; ++i) {
    const int kind = static_cast<int>(random.between(0, 2));
    if (kind == 0) {
      target_pool.push_back(tree.add_static_event(
          "t" + std::to_string(i), random.uniform(0.02, 0.3)));
    } else if (kind == 1) {
      target_pool.push_back(tree.add_dynamic_event(
          "y" + std::to_string(i),
          make_repairable(random.uniform(0.02, 0.1),
                          random.uniform(0.0, 0.3))));
    } else {
      const node_index e = tree.add_dynamic_event(
          "z" + std::to_string(i),
          make_erlang_triggered(static_cast<int>(random.between(1, 2)),
                                random.uniform(0.02, 0.1),
                                random.uniform(0.0, 0.3), 100.0));
      tree.set_trigger(source_gates[random.below(source_gates.size())], e);
      target_pool.push_back(e);
      ++out.num_triggered;
    }
  }
  std::vector<node_index> target_gates;
  for (int g = 0; g < 2; ++g) {
    std::vector<node_index> inputs;
    for (int i = 0, n = static_cast<int>(random.between(2, 3)); i < n; ++i) {
      inputs.push_back(target_pool[random.below(target_pool.size())]);
    }
    const node_index gate = tree.add_gate("tg" + std::to_string(g),
                                          random_gate_type(), inputs);
    target_pool.push_back(gate);
    target_gates.push_back(gate);
  }

  tree.set_top(tree.add_gate(
      "top", random_gate_type(),
      {source_gates.back(), target_gates.back()}));
  tree.validate();
  return out;
}

/// Random purely static SD fault tree: `num_events` basic events combined
/// by a layer of random AND/OR gates; every gate not referenced by a later
/// gate feeds the OR top, so the whole tree is reachable from the top (a
/// requirement of the OpenPSA round trip). Used by the parser round-trip
/// and determinism tests.
inline sd_fault_tree make_random_static_tree(std::uint64_t seed,
                                             std::size_t num_events = 8,
                                             std::size_t num_gates = 5) {
  rng random(seed);
  sd_fault_tree tree;
  std::vector<node_index> pool;
  for (std::size_t i = 0; i < num_events; ++i) {
    pool.push_back(tree.add_static_event("e" + std::to_string(i),
                                         random.uniform(1e-4, 0.3)));
  }
  std::vector<node_index> gates;
  std::vector<node_index> referenced;
  for (std::size_t g = 0; g < num_gates; ++g) {
    std::vector<node_index> inputs;
    const std::size_t n = random.between(2, 4);
    for (std::size_t i = 0; i < n; ++i) {
      node_index pick = pool[random.below(pool.size())];
      if (std::find(inputs.begin(), inputs.end(), pick) == inputs.end()) {
        inputs.push_back(pick);
      }
    }
    if (inputs.size() < 2) inputs.push_back(pool[random.below(num_events)]);
    const node_index gate = tree.add_gate(
        "g" + std::to_string(g),
        random.chance(0.5) ? gate_type::and_gate : gate_type::or_gate,
        inputs);
    referenced.insert(referenced.end(), inputs.begin(), inputs.end());
    pool.push_back(gate);
    gates.push_back(gate);
  }
  std::vector<node_index> top_inputs;
  for (node_index gate : gates) {
    if (std::find(referenced.begin(), referenced.end(), gate) ==
        referenced.end()) {
      top_inputs.push_back(gate);
    }
  }
  if (top_inputs.empty()) top_inputs.push_back(gates.back());
  tree.set_top(tree.add_gate("top", gate_type::or_gate, top_inputs));
  tree.validate();
  return tree;
}

/// The engine's exact static probability of a static fault tree (its one
/// exact path: the prep tree compiled in DFS order, frozen to a plan).
inline double engine_exact_static(const fault_tree& ft) {
  analysis_options opts;
  opts.exact_static = true;
  return analyze(sd_fault_tree(ft), opts).exact_static_probability;
}

/// The stage-2 oracle: every minimal cutset of `ft` from its BDD
/// (ft_bdd::minimal_cutsets(), generated without a cutoff), kept when its
/// probability product reaches `cutoff` — the predicate MOCUS prunes
/// partial cutsets with — in canonical (size, content) order.
inline std::vector<cutset> bdd_oracle_cutsets(const fault_tree& ft,
                                              double cutoff) {
  std::vector<cutset> out;
  for (cutset& c : ft_bdd(ft).minimal_cutsets()) {
    if (cutset_probability(ft, c) >= cutoff) out.push_back(std::move(c));
  }
  sort_cutsets_canonically(out);
  return out;
}

/// The oracle for an engine run: bdd_oracle_cutsets() on the FT-bar the
/// engine translates `tree` to under `opts`, mapped back to SD-tree
/// indices — the list analysis_result::cutsets must hold, in order.
inline std::vector<cutset> bdd_oracle_cutsets(const sd_fault_tree& tree,
                                              const analysis_options& opts) {
  const static_translation tr = translate_to_static(
      tree, opts.horizon, opts.epsilon, opts.reference_cutoff);
  std::vector<cutset> out = bdd_oracle_cutsets(tr.ft_bar, opts.cutoff);
  for (cutset& c : out) {
    for (node_index& e : c) e = tr.to_sd.at(e);
    std::sort(c.begin(), c.end());
  }
  sort_cutsets_canonically(out);
  return out;
}

/// The cutset list of an engine run (keep_cutset_details on), in order.
inline std::vector<cutset> engine_cutsets(const analysis_result& result) {
  std::vector<cutset> out;
  out.reserve(result.cutsets.size());
  for (const cutset_result& q : result.cutsets) out.push_back(q.events);
  return out;
}

/// A downsized industrial study: 6 frontline and 2 support systems, 4
/// initiating events of 3 sequences each, 3 components per train. Its
/// cutsets sit mostly below the paper's 1e-15 cutoff.
inline industrial_model small_industrial_model(std::uint64_t seed) {
  industrial_options gopt;
  gopt.seed = seed;
  gopt.num_frontline_systems = 6;
  gopt.num_support_systems = 2;
  gopt.num_initiating_events = 4;
  gopt.sequences_per_ie = 3;
  gopt.components_per_train = 3;
  return generate_industrial(gopt);
}

/// The §VI-B recipe: rank `model`'s basic events by Fussell-Vesely
/// importance over the engine's static cutsets at `cutoff`, then annotate
/// the top slice as `an` says.
inline sd_fault_tree annotated_study(const industrial_model& model,
                                     double cutoff,
                                     const annotation_options& an) {
  analysis_options opts;
  opts.cutoff = cutoff;
  const analysis_result static_run = analyze(sd_fault_tree(model.ft), opts);
  return annotate_dynamic(
      model, rank_by_fussell_vesely(model.ft, engine_cutsets(static_run)), an);
}

/// A random event tree over `ft`, a make_random_static_tree(seed, 10, 6)
/// structure that gets the initiating event "IE" and must outlive the
/// result: 2-5 functional events on the gates g0..g5 (on every third seed
/// one gate backs the first two), bypass outcomes, and a sequence set of a
/// non-power-of-two size between 3 and 24, each ending in "CD" or "OK".
inline event_tree make_random_event_tree(std::uint64_t seed, fault_tree& ft) {
  rng random(seed * 7919);
  const node_index ie = ft.add_basic_event("IE", random.uniform(0.01, 0.5));
  const auto num_fe = static_cast<std::size_t>(random.between(2, 5));
  event_tree et(ft, ie, "RND");
  for (std::size_t i = 0; i < num_fe; ++i) {
    const node_index gate =
        i == 1 && seed % 3 == 0
            ? et.functional_gate(0)
            : ft.find("g" + std::to_string(random.below(6)));
    et.add_functional_event("F" + std::to_string(i), gate);
  }
  std::size_t outcome_space = 1;
  for (std::size_t i = 0; i < num_fe; ++i) outcome_space *= 3;
  std::size_t num_seq = static_cast<std::size_t>(
      random.between(3, static_cast<std::int64_t>(
                            std::min<std::size_t>(outcome_space, 24))));
  if ((num_seq & (num_seq - 1)) == 0) --num_seq;
  std::set<std::vector<branch_outcome>> seen;
  while (seen.size() < num_seq) {
    std::vector<branch_outcome> outcomes;
    for (std::size_t i = 0; i < num_fe; ++i) {
      const std::uint64_t pick = random.below(5);
      outcomes.push_back(pick < 2   ? branch_outcome::failure
                         : pick < 4 ? branch_outcome::success
                                    : branch_outcome::bypass);
    }
    if (seen.insert(outcomes).second) {
      et.add_sequence(outcomes, random.chance(0.5) ? "CD" : "OK");
    }
  }
  et.validate();
  return et;
}

/// DAG-heavy random tree: OR gates over a small event pool, then a layer of
/// AND/OR gates drawing their inputs from those shared ORs, under an AND
/// top. Shared ORs over overlapping events make many expansion paths meet
/// at the same partial, so the visited table sees real duplicates. More
/// events, ORs and mid gates widen the expansion.
inline fault_tree shared_or_tree(std::uint64_t seed, int num_events = 10,
                                 int num_ors = 6, int num_mids = 4) {
  rng random(seed);
  fault_tree ft;
  // `count` distinct members of `from`, or 2-3 of them when count is 0.
  const auto pick = [&](const std::vector<node_index>& from, int count) {
    if (count == 0) count = static_cast<int>(random.between(2, 3));
    std::vector<node_index> chosen;
    while (static_cast<int>(chosen.size()) < count) {
      const node_index n = from[random.below(from.size())];
      if (std::find(chosen.begin(), chosen.end(), n) == chosen.end()) {
        chosen.push_back(n);
      }
    }
    return chosen;
  };
  std::vector<node_index> events;
  for (int i = 0; i < num_events; ++i) {
    events.push_back(ft.add_basic_event("e" + std::to_string(i),
                                        random.uniform(0.01, 0.3)));
  }
  std::vector<node_index> ors;
  for (int g = 0; g < num_ors; ++g) {
    ors.push_back(ft.add_gate("or" + std::to_string(g), gate_type::or_gate,
                              pick(events, 0)));
  }
  std::vector<node_index> mids;
  for (int g = 0; g < num_mids; ++g) {
    const auto type = g % 2 == 0 ? gate_type::and_gate : gate_type::or_gate;
    mids.push_back(
        ft.add_gate("mid" + std::to_string(g), type, pick(ors, 0)));
  }
  ft.set_top(ft.add_gate("top", gate_type::and_gate, pick(mids, 3)));
  return ft;
}

}  // namespace sdft::testing
