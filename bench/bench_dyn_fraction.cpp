// E4: the paper's §VI-B dynamic-fraction sweep on Model 1.
//
// Paper shape being reproduced: as the percentage of dynamic basic events
// grows (chosen by Fussell-Vesely importance, 1 triggered per 10 dynamic),
// the failure frequency drops, with the first ~30-40% responsible for most
// of the drop; the analysis time stops growing once the distribution of
// per-cutset Markov-model sizes stabilises.

#include <cstdio>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "mcs/cutset.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sdft;
  const bool full = bench::has_flag(argc, argv, "--full");

  const bench::prepared_model p =
      bench::prepare(bench::model1_options(full));
  const double static_freq =
      rare_event_probability(p.model.ft, p.mcs.cutsets);

  std::printf("=== §VI-B: dynamic fraction sweep, model 1 (t = 24h) ===\n\n");
  text_table table({"% dyn. BE", "% trigg. BE", "failure freq.",
                    "dyn. MCS", "analysis time"});
  table.add_row({"0", "0", sci(static_freq), "0", "-"});

  analysis_options aopts;
  aopts.horizon = 24.0;
  aopts.cutoff = bench::paper_cutoff;
  aopts.reference_cutoff = true;  // the paper uses the static cutoff (§VI)
  aopts.keep_cutset_details = false;

  for (double fraction : {0.1, 0.2, 0.3, 0.4, 0.5, 1.0}) {
    annotation_options an;
    an.dynamic_fraction = fraction;
    an.trigger_fraction = 0.1;
    an.repair_rate = 0.01;
    const sd_fault_tree tree = annotate_dynamic(p.model, p.ranked, an);
    const analysis_result r = analyze(tree, aopts);
    table.add_row({std::to_string(static_cast<int>(fraction * 100)),
                   std::to_string(static_cast<int>(fraction * 10)),
                   sci(r.failure_probability),
                   std::to_string(r.num_dynamic_cutsets),
                   duration_str(r.stats.total_seconds)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "paper: 1.50e-9 static dropping to 5.71e-9-range by 100%% dynamic,\n"
      "with most of the drop and the time plateau before ~40%%.\n");
  return 0;
}
