// E7: the paper's §VI-B phase sweep — total analysis time as the Erlang
// phase count of every dynamic event grows, for both industrial models.
//
// Paper shape being reproduced: time grows steeply (the per-cutset chain
// is exponential in #dyn events with base proportional to the phase
// count), and the model with the heavier triggering structure (model 2)
// is affected more.

#include <cstdio>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sdft;
  const bool full = bench::has_flag(argc, argv, "--full");

  std::printf("=== §VI-B: Erlang phases vs analysis time (t = 24h) ===\n\n");
  text_table table(
      {"Model", "phases", "failure freq.", "analysis time"});

  for (int m = 1; m <= 2; ++m) {
    const bench::prepared_model p = bench::prepare(
        m == 1 ? bench::model1_options(full) : bench::model2_options(full));
    for (int phases : {1, 2, 3}) {
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
      aopts.keep_cutset_details = false;
      const analysis_result r = analyze(tree, aopts);
      table.add_row({std::to_string(m), std::to_string(phases),
                     sci(r.failure_probability),
                     duration_str(r.stats.total_seconds)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "For larger phase counts, only a few selected components should be\n"
      "modelled with non-exponential failure laws (paper's conclusion).\n");
  return 0;
}
