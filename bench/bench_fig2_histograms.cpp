// E5: the paper's Figure 2 — histograms of the number of dynamic basic
// events per minimal cutset, for six levels of dynamic enrichment.
//
// Paper shape being reproduced: with more dynamic events the histogram
// shifts right and grows, but its shape stabilises past ~30-40% dynamic —
// which is why the analysis time plateaus in E4.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sdft;
  const bool full = bench::has_flag(argc, argv, "--full");

  const bench::prepared_model p =
      bench::prepare(bench::model1_options(full));

  std::printf("=== Figure 2: # dynamic events per MCS, model 1 ===\n\n");

  analysis_options aopts;
  aopts.horizon = 24.0;
  aopts.cutoff = bench::paper_cutoff;
  aopts.reference_cutoff = true;  // the paper uses the static cutoff (§VI)
  aopts.keep_cutset_details = false;

  const double fractions[] = {0.1, 0.2, 0.3, 0.4, 0.5, 1.0};
  std::vector<std::vector<std::size_t>> histograms;
  std::size_t max_events = 0;
  for (double fraction : fractions) {
    annotation_options an;
    an.dynamic_fraction = fraction;
    an.trigger_fraction = 0.1;
    an.repair_rate = 0.01;
    const analysis_result r =
        analyze(annotate_dynamic(p.model, p.ranked, an), aopts);
    histograms.push_back(r.dynamic_events_histogram);
    if (!r.dynamic_events_histogram.empty()) {
      max_events =
          std::max(max_events, r.dynamic_events_histogram.size() - 1);
    }
  }

  std::vector<std::string> header{"# dyn events in MCS"};
  for (double fraction : fractions) {
    header.push_back(std::to_string(static_cast<int>(fraction * 100)) +
                     "% dyn");
  }
  text_table table(std::move(header));
  for (std::size_t k = 1; k <= max_events; ++k) {
    std::vector<std::string> row{std::to_string(k)};
    for (const auto& h : histograms) {
      row.push_back(std::to_string(k < h.size() ? h[k] : 0));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());

  // ASCII rendition of the last histogram (fully dynamic).
  std::printf("fully dynamic model, histogram:\n");
  const auto& h = histograms.back();
  std::size_t peak = 1;
  for (std::size_t k = 1; k < h.size(); ++k) peak = std::max(peak, h[k]);
  for (std::size_t k = 1; k < h.size(); ++k) {
    const int bar = static_cast<int>(60.0 * h[k] / peak);
    std::printf("  %2zu | %-60s %zu\n", k,
                std::string(static_cast<std::size_t>(bar), '#').c_str(),
                h[k]);
  }
  return 0;
}
