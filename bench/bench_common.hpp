#pragma once

// Shared setup for the benchmark harness: the two synthetic stand-ins for
// the paper's proprietary §VI-B plant studies, plus a --full switch that
// scales them towards paper-order sizes (thousands of basic events). The
// default sizes keep every bench binary within a couple of minutes.

#include <cstring>
#include <string>

#include "engine/engine.hpp"
#include "gen/industrial.hpp"
#include "mcs/importance.hpp"

namespace sdft::bench {

/// The cutoff constant used throughout the paper's experiments.
inline constexpr double paper_cutoff = 1e-15;

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Model 1 (paper: 2,995 BE / 52,213 gates / 74,130 MCS).
inline industrial_options model1_options(bool full) {
  industrial_options o;
  o.seed = 1;
  if (full) {
    o.num_frontline_systems = 60;
    o.num_support_systems = 12;
    o.num_initiating_events = 30;
    o.sequences_per_ie = 10;
    o.components_per_train = 8;
    o.transfer_depth = 6;
    // Wider, lower probability ranges: with paper-size cross products the
    // 1e-15 cutoff has to kill the bulk of the combinations, exactly as in
    // real PSA studies.
    o.fts_min = 3e-7;
    o.fts_max = 1e-3;
    o.fio_rate_min = 1.25e-8;
    o.fio_rate_max = 4e-5;
  } else {
    o.num_frontline_systems = 18;
    o.num_support_systems = 5;
    o.num_initiating_events = 10;
    o.sequences_per_ie = 6;
    o.components_per_train = 5;
  }
  return o;
}

/// Model 2 (paper: 2,040 BE / 56,863 gates / 76,921 MCS) — fewer events,
/// more gate structure, heavier MCS generation.
inline industrial_options model2_options(bool full) {
  industrial_options o;
  o.seed = 2;
  if (full) {
    o.num_frontline_systems = 40;
    o.num_support_systems = 10;
    o.num_initiating_events = 40;
    o.sequences_per_ie = 12;
    o.components_per_train = 7;
    o.transfer_depth = 8;
    o.fts_min = 3e-7;
    o.fts_max = 1e-3;
    o.fio_rate_min = 1.25e-8;
    o.fio_rate_max = 4e-5;
  } else {
    o.num_frontline_systems = 12;
    o.num_support_systems = 4;
    o.num_initiating_events = 14;
    o.sequences_per_ie = 8;
    o.components_per_train = 5;
    o.transfer_depth = 5;
  }
  return o;
}

/// The engine's relevant minimal cutsets of a static tree at the paper's
/// cutoff (prep, modular MOCUS; canonical order over the tree's indices),
/// with the run's stage counters.
struct static_cutsets {
  std::vector<cutset> cutsets;
  engine_stats stats;
};

inline static_cutsets static_engine_cutsets(const fault_tree& ft) {
  analysis_options opts;
  opts.cutoff = paper_cutoff;
  opts.publish_metrics = false;
  analysis_result r = analysis_engine(opts).run(sd_fault_tree(ft));
  static_cutsets out;
  out.cutsets.reserve(r.cutsets.size());
  for (cutset_result& c : r.cutsets) out.cutsets.push_back(std::move(c.events));
  out.stats = r.stats;
  return out;
}

/// A generated model together with its static MCS list and FV ranking —
/// the inputs every dynamic-annotation experiment starts from.
struct prepared_model {
  industrial_model model;
  static_cutsets mcs;
  std::vector<node_index> ranked;
};

inline prepared_model prepare(const industrial_options& options) {
  prepared_model p;
  p.model = generate_industrial(options);
  p.mcs = static_engine_cutsets(p.model.ft);
  p.ranked = rank_by_fussell_vesely(p.model.ft, p.mcs.cutsets);
  return p;
}

}  // namespace sdft::bench
