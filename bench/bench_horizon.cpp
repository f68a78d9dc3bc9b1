// E8: the paper's §VI-B horizon sweep on Model 2.
//
//   | horizon | failure frequency | analysis time |
//   |   24h   | 1.86e-6           | 9m 31s        |
//   |   48h   | 4.67e-6           | 12m 47s       |
//   |   72h   | 7.56e-6           | 16m 59s       |
//   |   96h   | 1.05e-5           | 19m 14s       |
//
// Paper shape being reproduced: the frequency grows with the horizon
// (roughly linearly in this regime) while the analysis time grows only
// mildly (uniformisation cost is ~linear in q*t), so post-Fukushima
// multi-day horizons stay tractable.

#include <cstdio>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sdft;
  const bool full = bench::has_flag(argc, argv, "--full");

  const bench::prepared_model p =
      bench::prepare(bench::model2_options(full));

  std::printf("=== §VI-B: horizon sweep, model 2 ===\n\n");
  text_table table({"horizon", "failure frequency", "analysis time"});

  annotation_options an;
  an.dynamic_fraction = 1.0;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  const sd_fault_tree tree = annotate_dynamic(p.model, p.ranked, an);

  for (double horizon : {24.0, 48.0, 72.0, 96.0}) {
    analysis_options aopts;
    aopts.horizon = horizon;
    aopts.cutoff = bench::paper_cutoff;
    aopts.reference_cutoff = true;  // paper uses the static cutoff (§VI)
    aopts.keep_cutset_details = false;
    const analysis_result r = analyze(tree, aopts);
    table.add_row({std::to_string(static_cast<int>(horizon)) + "h",
                   sci(r.failure_probability),
                   duration_str(r.stats.total_seconds)});
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}
