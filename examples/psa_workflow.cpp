// A complete miniature PSA workflow across the library's substrates:
//
//   1. build system fault trees with voting gates and CCF groups,
//   2. arrange them in an event tree (IE, then two safety functions),
//   3. quantify the core-damage end state exactly (BDD, success branches)
//      and coherently (MCS pipeline),
//   4. enrich the study with dynamic pump behaviour along the event
//      tree's demand order (triggers) and run the SD pipeline,
//   5. cross-check with the Monte-Carlo simulator and report importance.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/risk_measures.hpp"
#include "ctmc/triggered.hpp"
#include "engine/engine.hpp"
#include "etree/event_tree.hpp"
#include "ft/ccf.hpp"
#include "ft/voting.hpp"
#include "mcs/mocus.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

int main() {
  using namespace sdft;

  // --- Static study ------------------------------------------------------
  fault_tree ft;
  ft.add_basic_event("IE_TRANSIENT", 5e-3);

  // High-pressure injection: 2-out-of-3 pumps must run; pumps form a CCF
  // group (beta factor).
  std::vector<node_index> hp_pumps;
  for (int i = 0; i < 3; ++i) {
    hp_pumps.push_back(
        ft.add_basic_event("HP_PUMP" + std::to_string(i), 4e-3));
  }
  const node_index hp_f = add_voting_gate(ft, "HP_F", 2, hp_pumps);

  // Auxiliary feedwater: two trains, each pump with start + run failures.
  std::vector<node_index> afw_trains;
  for (int i = 0; i < 2; ++i) {
    const std::string t = std::to_string(i);
    afw_trains.push_back(ft.add_gate(
        "AFW_T" + t, gate_type::or_gate,
        {ft.add_basic_event("AFW_FTS" + t, 2e-3),
         ft.add_basic_event("AFW_FIO" + t, 1.2e-2)}));  // lambda*t, 24h
  }
  const node_index afw_f =
      ft.add_gate("AFW_F", gate_type::and_gate, afw_trains);
  ft.set_top(ft.add_gate("ANY", gate_type::or_gate, {hp_f, afw_f}));

  ccf_group pumps_ccf;
  pumps_ccf.name = "HP_PUMPS";
  pumps_ccf.members = hp_pumps;
  pumps_ccf.beta = 0.08;
  const fault_tree expanded = expand_ccf(ft, {pumps_ccf});

  // --- Event tree over the expanded study ---------------------------------
  event_tree et(expanded, expanded.find("IE_TRANSIENT"), "TRANS");
  et.add_functional_event("AFW", expanded.find("AFW_F"));
  et.add_functional_event("HP", expanded.find("HP_F"));
  et.add_sequence({branch_outcome::success, branch_outcome::bypass}, "OK");
  et.add_sequence({branch_outcome::failure, branch_outcome::success}, "OK");
  et.add_sequence({branch_outcome::failure, branch_outcome::failure}, "CD");
  et.validate();

  std::printf("exact CD frequency (BDD, success branches): %s\n",
              sci(end_state_probability_exact(et, "CD")).c_str());
  const fault_tree cd = end_state_fault_tree(et, "CD");
  const auto mcs = mocus(cd);
  std::printf("coherent CD tree: %zu MCS, rare-event %s\n\n",
              mcs.cutsets.size(),
              sci(rare_event_probability(cd, mcs.cutsets)).c_str());

  // --- Dynamic enrichment along the demand order ---------------------------
  // AFW is demanded first; its failure triggers the HP pumps' run-failures.
  sd_fault_tree tree(cd);
  const double lambda = 5e-4;  // per hour
  for (node_index b : tree.structure().basic_events()) {
    const std::string& name = tree.structure().node(b).name;
    if (name.rfind("AFW_FIO", 0) == 0) {
      tree.make_dynamic(b, make_erlang_active(1, lambda, 2e-2));
    }
  }
  // HP pump independent parts become triggered chains started by AFW_F.
  const node_index afw_gate = tree.structure().find("AFW_F");
  for (int i = 0; i < 3; ++i) {
    const node_index b =
        tree.structure().find("HP_PUMP" + std::to_string(i) + "_I");
    if (b == fault_tree::npos) continue;
    tree.make_dynamic(b, make_erlang_triggered(1, lambda, 2e-2, 100.0));
    tree.set_trigger(afw_gate, b);
  }
  tree.validate();

  analysis_options opts;
  opts.horizon = 24.0;
  const analysis_result result = analyze(tree, opts);
  std::printf("SD pipeline CD frequency (24h): %s  (%zu dynamic MCS)\n",
              sci(result.failure_probability).c_str(),
              result.num_dynamic_cutsets);

  simulation_options sopts;
  sopts.runs = 400'000;
  const simulation_result sim =
      simulate_failure_probability(tree, opts.horizon, sopts);
  std::printf("Monte-Carlo check: %s  95%% CI [%s, %s]\n\n",
              sci(sim.estimate).c_str(), sci(sim.ci_low).c_str(),
              sci(sim.ci_high).c_str());

  const auto fv = fussell_vesely_sd(tree, result);
  text_table table({"event", "FV"});
  std::vector<std::pair<double, node_index>> ranked;
  for (const auto& [event, value] : fv) ranked.emplace_back(value, event);
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < ranked.size() && i < 6; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.4f", ranked[i].first);
    table.add_row({tree.structure().node(ranked[i].second).name, buf});
  }
  std::printf("top importance contributors:\n%s", table.str().c_str());
  return 0;
}
