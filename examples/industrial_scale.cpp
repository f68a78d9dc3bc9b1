// Industrial-scale run: generate a synthetic PSA study (the stand-in for
// the paper's proprietary §VI-B plant models), rank events by
// Fussell-Vesely importance, enrich the top slice with dynamic behaviour
// and trigger chains, and run the full SD analysis pipeline.

#include <cstdio>
#include <cstring>

#include "engine/engine.hpp"
#include "gen/industrial.hpp"
#include "mcs/importance.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sdft;

  industrial_options gopts;
  gopts.seed = 2015;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      // Paper-order sizing (§VI-B Model 1 territory); takes much longer.
      gopts.num_frontline_systems = 60;
      gopts.num_support_systems = 12;
      gopts.num_initiating_events = 30;
      gopts.sequences_per_ie = 10;
      gopts.components_per_train = 8;
    }
  }

  stopwatch timer;
  const industrial_model model = generate_industrial(gopts);
  std::printf("generated: %zu basic events, %zu gates (%.1fs)\n",
              model.ft.num_basic_events(), model.ft.num_gates(),
              timer.seconds());

  // The static study through the analysis pipeline: its relevant minimal
  // cutsets rank the events by Fussell-Vesely importance.
  analysis_options static_opts;
  static_opts.cutoff = 1e-15;
  const analysis_result static_run =
      analyze(sd_fault_tree(model.ft), static_opts);
  std::printf("minimal cutsets above 1e-15: %zu (%.1fs, %zu partials)\n",
              static_run.num_cutsets, static_run.stats.total_seconds,
              static_run.stats.source_partials);
  std::printf("static frequency: %s\n\n",
              sci(static_run.failure_probability).c_str());

  std::vector<cutset> cutsets;
  cutsets.reserve(static_run.cutsets.size());
  for (const cutset_result& c : static_run.cutsets) cutsets.push_back(c.events);
  const auto ranked = rank_by_fussell_vesely(model.ft, cutsets);

  // One engine across all runs: its quantification cache is keyed by the
  // structural signature of each per-MCS model, so later (larger) dynamic
  // fractions reuse the transient solves of earlier ones.
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-15;
  opts.keep_cutset_details = false;
  analysis_engine engine(opts);

  text_table table({"% dyn. FIO", "failure freq.", "dyn. MCS",
                    "mean dyn. events", "analysis time", "cache hit rate"});
  for (double fraction : {0.1, 0.3, 0.5, 1.0}) {
    annotation_options aopts;
    aopts.dynamic_fraction = fraction;
    aopts.trigger_fraction = 0.1;
    const sd_fault_tree tree = annotate_dynamic(model, ranked, aopts);

    const analysis_result result = engine.run(tree);
    char mean[32];
    std::snprintf(mean, sizeof mean, "%.2f", result.mean_dynamic_events);
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.1f%%",
                  100.0 * result.stats.cache_hit_rate());
    table.add_row({std::to_string(static_cast<int>(fraction * 100)),
                   sci(result.failure_probability),
                   std::to_string(result.num_dynamic_cutsets), mean,
                   duration_str(result.stats.total_seconds), rate});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Dynamic modelling of the most important events lowers the computed\n"
      "frequency; the per-cutset Markov chains stay small, so the\n"
      "quantification scales with the cutset list, not the state space —\n"
      "and the engine's memoisation collapses structurally identical\n"
      "chains (%zu cached solves served %zu quantifications).\n",
      engine.cache().solves(),
      engine.cache().hits() + engine.cache().misses());
  return 0;
}
