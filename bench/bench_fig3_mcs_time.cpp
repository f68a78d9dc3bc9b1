// E6: the paper's Figure 3 — time to analyse each per-cutset Markov model
// as a function of the number of dynamic basic events in the cutset and of
// the number of Erlang phases per event (log scale in the paper).
//
// Paper shape being reproduced: per-cutset time is exponential in the
// number of dynamic events (the product chain), with the number of phases
// driving the base of the exponent.
//
// Also sweeps stage 2 (MOCUS cutset generation) over thread counts to
// report the speedup of the work-stealing parallel driver, verifying on
// every run that the parallel cutset list is identical to the serial one.

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "bench_common.hpp"
#include "ctmc/triggered.hpp"
#include "engine/engine.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Sorted copy of the per-cutset event lists — the stage-2 output a
/// stage-3 change must not perturb.
std::vector<sdft::cutset> cutset_lists(const sdft::analysis_result& r) {
  std::vector<sdft::cutset> lists;
  lists.reserve(r.cutsets.size());
  for (const auto& q : r.cutsets) lists.push_back(q.events);
  std::sort(lists.begin(), lists.end());
  return lists;
}

/// Shared-trigger standby groups: each group is one primary whose failure
/// switches on `trains` identical spare pumps; the group fails when the
/// primary and every spare are down. MCS shape: one cutset per group with
/// trains + 1 dynamic events — the worst case for stage 3 and the best
/// case for symmetry lumping.
sdft::sd_fault_tree make_sequential_trains_model(std::size_t groups,
                                                 std::size_t trains) {
  using namespace sdft;
  sd_fault_tree tree;
  std::vector<node_index> group_gates;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::string suffix = std::to_string(g);
    const node_index primary = tree.add_dynamic_event(
        "P" + suffix, make_repairable(0.01 + 0.001 * g, 0.05));
    const node_index gp =
        tree.add_gate("GP" + suffix, gate_type::or_gate, {primary});
    std::vector<node_index> inputs{gp};
    for (std::size_t i = 0; i < trains; ++i) {
      triggered_ctmc pump;
      pump.chain = ctmc(4);
      pump.chain.set_initial(0, 1.0);
      pump.chain.set_failed(3);
      pump.chain.add_rate(2, 3, 0.002 + 0.0001 * g);
      pump.chain.add_rate(3, 2, 0.05);
      pump.chain.add_rate(1, 0, 0.05);
      pump.on_state = {0, 0, 1, 1};
      pump.to_on = {2, 3, 0, 0};
      pump.to_off = {0, 0, 0, 1};
      const node_index train = tree.add_dynamic_event(
          "T" + suffix + "_" + std::to_string(i), pump);
      tree.set_trigger(gp, train);
      inputs.push_back(train);
    }
    group_gates.push_back(
        tree.add_gate("GROUP" + suffix, gate_type::and_gate, inputs));
  }
  tree.set_top(tree.add_gate("top", gate_type::or_gate, group_gates));
  tree.validate();
  return tree;
}

/// Runs the full pipeline with the stage-3 fast paths on and off and
/// reports the quantification-stage speedup. The cutset lists must be
/// bit-identical — stage 3 never feeds back into stage 2.
void run_stage3_ab(const sdft::sd_fault_tree& tree, const char* label,
                   double horizon, sdft::text_table& table) {
  using namespace sdft;
  analysis_options fast;
  fast.horizon = horizon;
  fast.cutoff = bench::paper_cutoff;
  fast.cache_quantifications = false;  // measure every solve
  analysis_options slow = fast;
  slow.lump_symmetry = false;
  slow.packed_state_keys = false;
  slow.transient_early_termination = false;

  const analysis_result before = analyze(tree, slow);
  const analysis_result after = analyze(tree, fast);
  const bool identical = cutset_lists(before) == cutset_lists(after);
  const double gap =
      std::abs(before.failure_probability - after.failure_probability) /
      std::max(before.failure_probability, 1e-300);

  char t_before[32], t_after[32], speedup[32], drift[32];
  std::snprintf(t_before, sizeof t_before, "%.3fs",
                before.stats.quantify_seconds);
  std::snprintf(t_after, sizeof t_after, "%.3fs",
                after.stats.quantify_seconds);
  std::snprintf(speedup, sizeof speedup, "%.2fx",
                before.stats.quantify_seconds /
                    std::max(after.stats.quantify_seconds, 1e-12));
  std::snprintf(drift, sizeof drift, "%.1e", gap);
  table.add_row({label, std::to_string(after.num_cutsets), t_before, t_after,
                 speedup,
                 std::to_string(after.stats.lumped_orbits) + " / " +
                     std::to_string(after.stats.uniformisation_steps_saved),
                 drift, identical ? "yes" : "NO (BUG)"});
}

void run_thread_sweep(const sdft::industrial_model& model) {
  using namespace sdft;
  std::printf("=== Stage 2 thread sweep: parallel MOCUS on model 1 ===\n\n");

  mocus_options mopts;
  mopts.cutoff = bench::paper_cutoff;
  const mocus_result serial = mocus(model.ft, mopts);

  text_table table({"threads", "time", "speedup", "tasks", "steals",
                    "occupancy", "identical"});
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    thread_pool pool(threads);
    mopts.pool = &pool;
    const pool_counters before = pool.counters();
    const mocus_result r = mocus(model.ft, mopts);
    const pool_counters after = pool.counters();

    char t[32], s[32], occ[32];
    std::snprintf(t, sizeof t, "%.3fs", r.seconds);
    std::snprintf(s, sizeof s, "%.2fx", serial.seconds / r.seconds);
    std::snprintf(occ, sizeof occ, "%.1f%%",
                  100.0 * after.occupancy_since(before));
    table.add_row({std::to_string(pool.size()), t, s,
                   std::to_string(after.submitted - before.submitted),
                   std::to_string(after.stolen - before.stolen), occ,
                   r.cutsets == serial.cutsets ? "yes" : "NO (BUG)"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "%zu minimal cutsets; every row must reproduce the serial list\n"
      "bit-identically (\"identical\" column).\n\n",
      serial.cutsets.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdft;
  const bool full = bench::has_flag(argc, argv, "--full");

  const bench::prepared_model p =
      bench::prepare(bench::model1_options(full));

  run_thread_sweep(p.model);

  std::printf(
      "=== Stage-3 fast path: before/after breakdown ===\n\n");
  {
    text_table ab({"configuration", "cutsets", "quantify (before)",
                   "quantify (after)", "speedup", "orbits / steps saved",
                   "rel drift", "cutsets identical"});
    run_stage3_ab(make_sequential_trains_model(6, full ? 9 : 7),
                  "sequential trains (shared trigger)", 96.0, ab);
    {
      annotation_options an;
      an.dynamic_fraction = 1.0;
      an.trigger_fraction = 0.3;
      an.repair_rate = 0.01;
      an.phases = 6;  // deep per-event chains: stage 3 dominates
      const sd_fault_tree industrial =
          annotate_dynamic(p.model, p.ranked, an);
      run_stage3_ab(industrial, "industrial (model 1 annotation)", 96.0, ab);
    }
    std::printf("%s\n", ab.str().c_str());
    std::printf(
        "before = lumping/packing/early-termination off; after = defaults.\n"
        "Stage 2 must hand both runs bit-identical cutset lists.\n\n");
  }

  std::printf(
      "=== Figure 3: per-MCS analysis time vs #dyn events x phases ===\n\n");

  struct cell {
    double seconds = 0.0;
    double states = 0.0;
    std::size_t count = 0;
  };

  const int phase_counts[] = {1, 2, 3, 4};
  std::map<std::pair<int, std::size_t>, cell> grid;  // (phases, events)
  std::size_t max_events = 0;

  for (int phases : phase_counts) {
    annotation_options an;
    an.dynamic_fraction = 1.0;
    an.trigger_fraction = 0.1;
    an.repair_rate = 0.01;
    an.phases = phases;
    const sd_fault_tree tree = annotate_dynamic(p.model, p.ranked, an);

    analysis_options aopts;
    aopts.horizon = 24.0;
    aopts.cutoff = bench::paper_cutoff;
    aopts.reference_cutoff = true;  // paper uses the static cutoff (§VI)
    aopts.keep_cutset_details = true;  // need the per-cutset timings
    const analysis_result r = analyze(tree, aopts);

    for (const auto& q : r.cutsets) {
      if (!q.dynamic) continue;
      const std::size_t events = q.num_dynamic + q.num_added_dynamic;
      cell& c = grid[{phases, events}];
      c.seconds += q.seconds;
      c.states += static_cast<double>(q.chain_states);
      ++c.count;
      max_events = std::max(max_events, events);
    }
  }

  text_table table({"# dyn events", "phases", "mean time per MCS",
                    "mean chain states", "# MCS"});
  for (std::size_t events = 1; events <= max_events; ++events) {
    for (int phases : phase_counts) {
      auto it = grid.find({phases, events});
      if (it == grid.end()) continue;
      const cell& c = it->second;
      char t[32], s[32];
      std::snprintf(t, sizeof t, "%.3fms",
                    1e3 * c.seconds / static_cast<double>(c.count));
      std::snprintf(s, sizeof s, "%.1f",
                    c.states / static_cast<double>(c.count));
      table.add_row({std::to_string(events), std::to_string(phases), t, s,
                     std::to_string(c.count)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "chain size (and thus time) grows exponentially in #dyn events with\n"
      "the per-event state count (phases) as the base, as in the paper.\n");
  return 0;
}
