// E6: the paper's Figure 3 — time to analyse each per-cutset Markov model
// as a function of the number of dynamic basic events in the cutset and of
// the number of Erlang phases per event (log scale in the paper).
//
// Paper shape being reproduced: per-cutset time is exponential in the
// number of dynamic events (the product chain), with the number of phases
// driving the base of the exponent.
//
// Also sweeps the engine's stage 2 (prep + modular MOCUS on the static
// model) over thread counts to report the speedup of its parallel cutset
// generation from engine_stats. Every row's cutset list must equal the
// inline run's; the program exits 1 when one differs, which makes it the
// thread-sweep regression test (ctest bench_fig3_thread_sweep).

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "util/table.hpp"

namespace {

/// Prints the sweep table; false when some row's list differs from the
/// inline run's.
bool run_thread_sweep(const sdft::industrial_model& model) {
  using namespace sdft;
  std::printf(
      "=== Stage 2 thread sweep: engine cutset generation on model 1 "
      "===\n\n");

  const sd_fault_tree tree(model.ft);
  // A fresh engine per run: a warm structure cache would skip stage 2.
  const auto run = [&](std::size_t threads) {
    analysis_options opts;
    opts.cutoff = bench::paper_cutoff;
    opts.threads = threads;  // 1: no pool, every stage inline
    opts.publish_metrics = false;
    return analysis_engine(opts).run(tree);
  };
  const auto same_list = [](const analysis_result& a,
                            const analysis_result& b) {
    return std::equal(a.cutsets.begin(), a.cutsets.end(), b.cutsets.begin(),
                      b.cutsets.end(),
                      [](const cutset_result& x, const cutset_result& y) {
                        return x.events == y.events;
                      });
  };
  const analysis_result serial = run(1);

  text_table table({"threads", "time", "speedup", "occupancy", "identical"});
  bool all_identical = true;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    const analysis_result r = run(threads);
    const engine_stats& st = r.stats;
    char t[32], s[32], occ[32];
    std::snprintf(t, sizeof t, "%.3fs", st.generate_seconds);
    std::snprintf(s, sizeof s, "%.2fx",
                  serial.stats.generate_seconds / st.generate_seconds);
    std::snprintf(occ, sizeof occ, "%.1f%%", 100.0 * st.mocus_occupancy);
    const bool identical = same_list(r, serial);
    all_identical = all_identical && identical;
    table.add_row({std::to_string(st.mocus_threads), t, s, occ,
                   identical ? "yes" : "NO (BUG)"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "%zu minimal cutsets; every row must reproduce the inline list\n"
      "bit-identically (\"identical\" column).\n\n",
      serial.num_cutsets);
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdft;
  const bool full = bench::has_flag(argc, argv, "--full");

  const bench::prepared_model p =
      bench::prepare(bench::model1_options(full));

  if (!run_thread_sweep(p.model)) {
    std::fprintf(stderr, "thread sweep: a cutset list differs from the "
                         "inline run's\n");
    return 1;
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
