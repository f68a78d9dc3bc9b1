// E1 + E2: the paper's §VI-A table on the BWR example study.
//
// Paper shape being reproduced:
//   - "no timing" row: the static rare-event frequency;
//   - adding repairs (rates 1/10h, 1/100h, 1/1000h) lowers the frequency
//     monotonically with repair speed;
//   - adding the six triggers cumulatively (FEED&BLEED, RHR, EFW, ECC,
//     SWS, CCW) lowers it further, step by step;
//   - roughly half the cutsets are dynamic, with ~3 dynamic events each of
//     which ~1.8 were added by trigger modelling (paper: 3.02 / 1.78).

#include <cstdio>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "util/table.hpp"

int main() {
  using namespace sdft;

  std::printf("=== §VI-A: small BWR study, repairs and triggers ===\n\n");

  const sd_fault_tree static_model = make_bwr_model({});
  const auto& ft = static_model.structure();
  const bench::static_cutsets static_mcs = bench::static_engine_cutsets(ft);
  const double static_freq =
      rare_event_probability(ft, static_mcs.cutsets);
  std::printf(
      "model: %zu basic events, %zu gates, %zu MCS above 1e-15 "
      "(paper: 68 / 122 / 11142)\n\n",
      ft.num_basic_events(), ft.num_gates(), static_mcs.cutsets.size());

  analysis_options aopts;
  aopts.horizon = 24.0;
  aopts.cutoff = bench::paper_cutoff;
  aopts.reference_cutoff = true;  // the paper uses the static cutoff (§VI)
  aopts.keep_cutset_details = false;

  text_table table({"setting", "failure freq.", "analysis time"});
  table.add_row({"no timing", sci(static_freq), "-"});

  // Repair-rate sweep, no triggers.
  for (double mttr : {10.0, 100.0, 1000.0}) {
    bwr_options opts;
    opts.dynamic_events = true;
    opts.repair_rate = 1.0 / mttr;
    const analysis_result r = analyze(make_bwr_model(opts), aopts);
    table.add_row({"repair rate 1/" + std::to_string(int(mttr)) + "h",
                   sci(r.failure_probability),
                   duration_str(r.stats.total_seconds)});
  }

  // Cumulative triggers at repair rate 1/100h.
  const char* labels[] = {"+FEED&BLEED trigger", "+RHR trigger",
                          "+EFW trigger",        "+ECC trigger",
                          "+SWS trigger",        "+CCW trigger"};
  analysis_result last;
  for (int count = 1; count <= bwr_num_triggers; ++count) {
    bwr_options opts;
    opts.dynamic_events = true;
    opts.repair_rate = 1.0 / 100.0;
    opts = with_bwr_triggers(opts, count);
    last = analyze(make_bwr_model(opts), aopts);
    table.add_row({labels[count - 1], sci(last.failure_probability),
                   duration_str(last.stats.total_seconds)});
  }
  std::printf("%s\n", table.str().c_str());

  // E2: cutset statistics of the fully dynamic model.
  std::printf("fully dynamic model cutset statistics:\n");
  std::printf("  dynamic MCSs: %zu of %zu (paper: 5449 of 11142)\n",
              last.num_dynamic_cutsets, last.num_cutsets);
  std::printf(
      "  mean dynamic events per dynamic MCS: %.2f (paper: 3.02)\n"
      "  of which added by trigger modelling: %.2f (paper: 1.78)\n",
      last.mean_dynamic_events, last.mean_added_dynamic_events);
  return 0;
}
