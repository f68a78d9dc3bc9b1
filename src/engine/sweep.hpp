#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "sdft/sd_fault_tree.hpp"
#include "util/json.hpp"

namespace sdft {

/// One parameter point of a sweep: static basic-event probability
/// overrides (SD node index -> probability) plus an optional per-point
/// horizon. Dynamic events cannot be overridden (their parameters live in
/// their chains); resolve_sweep() rejects them.
struct sweep_point {
  std::vector<std::pair<node_index, double>> overrides;
  double horizon = 0;  ///< 0 = inherit the engine options' horizon
  std::string label;
};

/// A fully resolved batch of points, ready for run_sweep().
struct sweep_spec {
  std::vector<sweep_point> points;
};

/// A sweep as the user wrote it — event *names*, ranges not yet expanded.
/// Produced by the parsers (pure syntax, no model in sight) and turned
/// into a sweep_spec by resolve_sweep() against a concrete tree. The
/// split keeps the CLI's error taxonomy clean: parse errors are usage
/// errors, resolution errors are model errors.
struct sweep_description {
  struct range {
    std::string event;
    double lo = 0;
    double hi = 0;
    std::size_t count = 0;
    bool log_scale = false;
  };
  struct named_point {
    std::vector<std::pair<std::string, double>> overrides;
    double horizon = 0;
    std::string label;
  };

  /// Cartesian-grid axes (empty when `points` is used).
  std::vector<range> ranges;

  /// Explicit points (empty when `ranges` is used).
  std::vector<named_point> points;

  bool empty() const { return ranges.empty() && points.empty(); }
};

/// Parses CLI range arguments of the form NAME=lo:hi:N[:log|:linear]
/// (one axis each; the grid is their cartesian product). Throws
/// sdft::error on malformed syntax.
sweep_description parse_sweep_ranges(const std::vector<std::string>& args);

/// Parses a JSON sweep spec:
///   {"points": [{"overrides": {"PUMP": 0.01}, "horizon": 48,
///                "label": "..."}, ...]}
/// or
///   {"params": [{"name": "PUMP", "lo": 1e-4, "hi": 1e-2, "n": 8,
///                "scale": "log"}, ...]}
/// Throws sdft::error on malformed input.
sweep_description parse_sweep_json(const std::string& text);

/// Same grammar over an already parsed JSON value (the serve layer reads
/// the sweep spec out of a request object).
sweep_description parse_sweep_value(const json::value& root);

/// Expands grids and resolves event names against `tree`. Throws
/// model_error for unknown events, non-static events, probabilities
/// outside [0, 1], or an empty description.
sweep_spec resolve_sweep(const sweep_description& description,
                         const sd_fault_tree& tree);

/// Result of one batched sweep.
struct sweep_result {
  /// Per-point results, aligned with sweep_spec::points. Each is
  /// bit-identical to a one-shot analyze() of the same perturbed tree.
  std::vector<analysis_result> points;

  double prime_seconds = 0;  ///< envelope prime (stages 1–2, once)
  double total_seconds = 0;
  std::size_t threads = 0;            ///< workers the points fanned out on
  std::size_t struct_cache_hits = 0;  ///< points replayed from the cache

  /// Field-wise sum of the per-point engine_stats (labels from the last
  /// point) — published to the metrics registry as the sweep's aggregate.
  engine_stats aggregate;
};

/// Quantifies every point of `spec` over `base`, sharing one cached
/// structure: primes the engine's structure cache with the *envelope*
/// tree (per-event maximum probability over base and all points, maximum
/// horizon — which dominates every point, see struct_cache.hpp), then
/// runs all points concurrently on the engine's pool, each point inline on
/// the worker that claims it, with the engine's shared caches. Without a
/// pool (engine::pool(base_options) is null) they run in order inline.
///
/// Per-point results are bit-identical to independent one-shot analyses:
/// the structure-cache hit path re-filters exactly, quantification-cache
/// hits replay bit-identical solves, and per-analysis results are
/// thread-count independent by the determinism contract.
sweep_result run_sweep(analysis_engine& engine, const sd_fault_tree& base,
                       const sweep_spec& spec);

/// Same, with explicit base options instead of the engine's (how the serve
/// layer gives a sweep request its own horizon and cutoff). The `threads`
/// and cache-capacity fields of `base_options` are ignored, as in
/// engine::run().
sweep_result run_sweep(analysis_engine& engine, const sd_fault_tree& base,
                       const sweep_spec& spec,
                       const analysis_options& base_options);

}  // namespace sdft
