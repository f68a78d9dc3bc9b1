// Quickstart: the paper's running example (Examples 1-7) end to end.
//
// Builds the two-pump emergency cooling system, first as a classic static
// fault tree (minimal cutsets, rare-event approximation, exact BDD
// probability), then as an SD fault tree where the pumps' failures in
// operation are repairable Markov chains and the spare pump is triggered
// by the failure of the first one — and runs the paper's analysis pipeline
// on it.

#include <cstdio>

#include "bdd/ft_bdd.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/triggered.hpp"
#include "engine/engine.hpp"
#include "ft/fault_tree.hpp"
#include "mcs/mocus.hpp"
#include "product/product_ctmc.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "util/table.hpp"

namespace {

/// The triggered chain of the spare pump (paper Example 2): off/on pairs of
/// ok/fail states; it fails only while running and is repaired either way.
sdft::triggered_ctmc spare_pump(double failure_rate, double repair_rate) {
  sdft::triggered_ctmc m;
  m.chain = sdft::ctmc(4);  // 0 off-ok, 1 off-fail, 2 on-ok, 3 on-fail
  m.chain.set_initial(0, 1.0);
  m.chain.set_failed(3);
  m.chain.add_rate(2, 3, failure_rate);
  m.chain.add_rate(3, 2, repair_rate);
  m.chain.add_rate(1, 0, repair_rate);
  m.on_state = {0, 0, 1, 1};
  m.to_on = {2, 3, 0, 0};
  m.to_off = {0, 0, 0, 1};
  return m;
}

}  // namespace

int main() {
  using namespace sdft;

  // --- Static fault tree (paper Example 1) -----------------------------
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 3e-3);  // pump 1 fails to start
  const node_index b = ft.add_basic_event("b", 1e-3);  // pump 1 fails running
  const node_index c = ft.add_basic_event("c", 3e-3);  // pump 2 fails to start
  const node_index d = ft.add_basic_event("d", 1e-3);  // pump 2 fails running
  const node_index e = ft.add_basic_event("e", 3e-6);  // water tank
  const node_index pump1 = ft.add_gate("PUMP1", gate_type::or_gate, {a, b});
  const node_index pump2 = ft.add_gate("PUMP2", gate_type::or_gate, {c, d});
  const node_index pumps =
      ft.add_gate("PUMPS", gate_type::and_gate, {pump1, pump2});
  ft.set_top(ft.add_gate("COOLING", gate_type::or_gate, {e, pumps}));

  std::printf("== static analysis ==\n");
  const mocus_result mcs = mocus(ft);
  std::printf("minimal cutsets (%zu):\n", mcs.cutsets.size());
  for (const auto& cut : mcs.cutsets) {
    std::printf("  {");
    for (std::size_t i = 0; i < cut.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", ft.node(cut[i]).name.c_str());
    }
    std::printf("}  p = %s\n", sci(cutset_probability(ft, cut)).c_str());
  }
  std::printf("rare-event approximation: %s\n",
              sci(rare_event_probability(ft, mcs.cutsets)).c_str());
  std::printf("exact (BDD):              %s\n\n",
              sci(ft_bdd(ft).probability()).c_str());

  // --- SD fault tree (paper Example 3) ---------------------------------
  sd_fault_tree tree;
  const node_index sa = tree.add_static_event("a", 3e-3);
  const node_index sb =
      tree.add_dynamic_event("b", make_repairable(1e-3, 5e-2));
  const node_index sc = tree.add_static_event("c", 3e-3);
  const node_index sd_ = tree.add_dynamic_event("d", spare_pump(1e-3, 5e-2));
  const node_index se = tree.add_static_event("e", 3e-6);
  const node_index p1 = tree.add_gate("PUMP1", gate_type::or_gate, {sa, sb});
  const node_index p2 = tree.add_gate("PUMP2", gate_type::or_gate, {sc, sd_});
  const node_index ps = tree.add_gate("PUMPS", gate_type::and_gate, {p1, p2});
  tree.set_top(tree.add_gate("COOLING", gate_type::or_gate, {se, ps}));
  tree.set_trigger(p1, sd_);  // pump 1's failure starts the spare
  tree.validate();

  std::printf("== SD analysis (repairs + triggered spare) ==\n");
  text_table table({"horizon", "p_rea (pipeline)", "exact (product CTMC)",
                    "dynamic MCSs"});
  for (double horizon : {6.0, 24.0, 48.0, 96.0}) {
    analysis_options opts;
    opts.horizon = horizon;
    const analysis_result result = analyze(tree, opts);
    const double exact = exact_failure_probability(tree, horizon);
    table.add_row({std::to_string(static_cast<int>(horizon)) + "h",
                   sci(result.failure_probability), sci(exact),
                   std::to_string(result.num_dynamic_cutsets) + "/" +
                       std::to_string(result.num_cutsets)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "The pipeline's rare-event sum tracks the exact product-chain\n"
      "probability while only ever solving per-cutset Markov chains.\n");
  return 0;
}
