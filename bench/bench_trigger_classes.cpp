// E10 (ablation, ours): the cost and accuracy of the three trigger-gate
// classes of paper §V-A on the same cutset, plus the §VIII approximation
// modes.
//
// Shape: static branching models the fewest events (cheapest chains),
// static joins add the interfering dynamic events, the general case also
// adds static guards; the under-approximation bounds from below, the
// over-approximation from above, with the exact value in between.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/mcs_model.hpp"
#include "ctmc/transient.hpp"
#include "ctmc/triggered.hpp"
#include "product/product_ctmc.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

/// e, f1..fN dynamic under the triggering OR; g triggered; top = AND(e, g).
/// Growing N shows the cost of static joins (all of Dyn is added).
sdft::sd_fault_tree joins_chain(int interferers) {
  using namespace sdft;
  sd_fault_tree tree;
  const node_index e =
      tree.add_dynamic_event("e", make_erlang_active(1, 0.05, 0.2));
  std::vector<node_index> inputs{e};
  for (int i = 0; i < interferers; ++i) {
    inputs.push_back(tree.add_dynamic_event(
        "f" + std::to_string(i), make_erlang_active(1, 0.08, 0.2)));
  }
  const node_index trig_gate =
      tree.add_gate("G", gate_type::or_gate, inputs);
  const node_index g = tree.add_dynamic_event(
      "g", make_erlang_triggered(1, 0.1, 0.2, 100.0));
  tree.set_top(tree.add_gate("top", gate_type::and_gate, {e, g}));
  tree.set_trigger(trig_gate, g);
  tree.validate();
  return tree;
}

}  // namespace

int main() {
  using namespace sdft;

  const double t = 24.0;
  std::printf("=== trigger-class ablation: cutset {e, g} ===\n\n");

  text_table table({"interferers", "mode", "p-tilde", "chain states",
                    "added dyn", "added static", "time"});
  for (int n : {1, 2, 4, 6}) {
    const sd_fault_tree tree = joins_chain(n);
    const cutset c{tree.structure().find("e"), tree.structure().find("g")};
    struct row {
      const char* label;
      approx_mode mode;
    };
    for (const row& r : {row{"exact (static joins)",
                             approx_mode::as_classified},
                         row{"under (branching)",
                             approx_mode::under_approximate},
                         row{"over", approx_mode::over_approximate}}) {
      stopwatch timer;
      const mcs_model model = build_mcs_model(tree, c, r.mode);
      std::size_t states = 0;
      const double p = quantify_mcs_model(model, t, 1e-10, 2'000'000,
                                          &states);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3fms", timer.millis());
      table.add_row({std::to_string(n), r.label, sci(p, 4),
                     std::to_string(states),
                     std::to_string(model.added_dynamic.size()),
                     std::to_string(model.added_static.size()), buf});
    }
    // Reference: the exact product semantics of the whole (small) tree.
    stopwatch timer;
    const double exact = exact_failure_probability(tree, t);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3fms", timer.millis());
    table.add_row({std::to_string(n), "full product (reference)",
                   sci(exact, 4), "-", "-", "-", buf});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "under <= exact <= over; the under-approximation's chain excludes\n"
      "all interferers, the exact static-joins chain grows with them.\n\n");

  // Stage-3 breakdown on the same models: the N identical interferers
  // under the triggering OR form one orbit, so lumping collapses the
  // exact chain; early termination trims the uniformisation on top.
  std::printf("=== stage-3 fast path on the static-joins chain ===\n\n");
  text_table stage3({"interferers", "states before", "states after",
                     "time before", "time after", "speedup", "rel drift"});
  for (int n : {2, 4, 6, 8}) {
    const sd_fault_tree tree = joins_chain(n);
    const cutset c{tree.structure().find("e"), tree.structure().find("g")};
    const mcs_model model = build_mcs_model(tree, c);

    product_options slow_opts;
    slow_opts.lump_symmetry = false;
    slow_opts.packed_state_keys = false;
    transient_controls slow_ctrl;
    slow_ctrl.early_exit = false;
    stopwatch slow_timer;
    const product_ctmc slow_product =
        build_product_ctmc(model.tree, slow_opts);
    const double slow_p =
        reach_failed_probability(slow_product.chain, t, 1e-10, slow_ctrl) *
        model.static_factor;
    const double slow_ms = slow_timer.millis();

    stopwatch fast_timer;
    const product_ctmc fast_product = build_product_ctmc(model.tree);
    const double fast_p =
        reach_failed_probability(fast_product.chain, t, 1e-10) *
        model.static_factor;
    const double fast_ms = fast_timer.millis();

    char tb[32], ta[32], sp[32], drift[32];
    std::snprintf(tb, sizeof tb, "%.3fms", slow_ms);
    std::snprintf(ta, sizeof ta, "%.3fms", fast_ms);
    std::snprintf(sp, sizeof sp, "%.2fx", slow_ms / std::max(fast_ms, 1e-9));
    std::snprintf(drift, sizeof drift, "%.1e",
                  std::abs(slow_p - fast_p) / std::max(slow_p, 1e-300));
    stage3.add_row({std::to_string(n),
                    std::to_string(slow_product.num_states()),
                    std::to_string(fast_product.num_states()), tb, ta, sp,
                    drift});
  }
  std::printf("%s\n", stage3.str().c_str());
  return 0;
}
