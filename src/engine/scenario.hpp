#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/sweep.hpp"
#include "etree/event_tree.hpp"
#include "etree/scenario.hpp"
#include "ft/ccf.hpp"
#include "mcs/cutset.hpp"

namespace sdft {

/// Options of a scenario (event-tree) quantification run.
struct scenario_options {
  /// Shared pipeline options: backend and prep flags for the per-gate
  /// cutset lists, threads for the batched UQ samples, sweep points and
  /// per-sequence recombinations, cutoff for cutset recombination,
  /// publish_metrics / inline_execution with their usual meanings.
  /// `exact_static` is accepted but redundant: the scenario engine's
  /// primary path is already BDD-exact.
  analysis_options analysis;

  /// Monte-Carlo parameter-uncertainty samples (0 = no UQ layer). Each
  /// sample draws every declared distribution once from a counter-based
  /// substream and re-quantifies the whole scenario with one sweep of the
  /// frozen plan — results are bit-identical at any thread count.
  std::size_t uq_samples = 0;
  std::uint64_t uq_seed = 1;

  /// Also build per-sequence minimal-cutset lists (per-gate lists through
  /// the engine's structure cache, recombined across each sequence's
  /// failed branches) and report their rare-event sums next to the exact
  /// probabilities. Skipped under the mc backend.
  bool quantify_cutsets = true;
};

/// Percentile band of one quantity over the UQ samples (the percentile
/// convention of core/risk_measures.hpp: index = floor(q * (n - 1))).
struct uncertainty_band {
  double mean = 0;
  double p05 = 0;
  double p50 = 0;
  double p95 = 0;
};

struct scenario_sequence_result {
  std::string label;      ///< "SEQ<k>" in declaration order
  std::string end_state;
  double probability = 0;      ///< exact (multi-root BDD, negation-aware)
  double mcs_probability = 0;  ///< rare-event sum over recombined cutsets
  std::size_t num_cutsets = 0;
  uncertainty_band uq;  ///< meaningful when uq_samples > 0
};

struct scenario_end_state_result {
  std::string name;
  std::size_t num_sequences = 0;
  double probability = 0;      ///< exact union over member sequences
  double mcs_probability = 0;  ///< rare-event sum over the merged MCS list
  std::size_t num_cutsets = 0;
  uncertainty_band uq;
};

/// Result of one scenario run: every sequence and every end state of the
/// event tree, quantified in one pass.
struct scenario_result {
  std::vector<scenario_sequence_result> sequences;
  std::vector<scenario_end_state_result> end_states;  ///< first-appearance order
  double initiating_probability = 0;  ///< p(IE) after CCF expansion

  /// scenario.*/ccf.*/uq.* counters plus the accumulated per-gate cutset
  /// runs' engine counters (published to the metrics registry unless
  /// analysis.publish_metrics is off).
  engine_stats stats;
};

/// One parameter point re-evaluated off the compiled scenario (the serve
/// layer's `etree` requests and CLI `sdft etree --sweep-*`).
struct scenario_point_result {
  std::string label;
  std::vector<double> sequence_probabilities;   ///< aligned with sequences
  std::vector<double> end_state_probabilities;  ///< aligned with end_state_names()
};

/// One-pass event-tree scenario engine. Construction compiles the model:
/// CCF groups are expanded (traced, so parameter draws re-derive every
/// CCF probability exactly), the event tree is re-anchored on the
/// expanded tree, and every functional-event gate is compiled exactly
/// once into one shared multi-root BDD with prefix-product sharing across
/// sequences. The sequence and end-state roots are then frozen into one
/// evaluation plan and the compiler (manager, tables, memos) is dropped.
/// Each probability vector — run()'s base point, every UQ sample, every
/// evaluate_points() point — is one forward sweep of that plan; samples
/// and points batch on the work-stealing pool with index-ordered writes.
/// Results are bit-identical at any thread count, and bit-identical to
/// per-sequence one-shot compilations (BDD operations are canonical).
///
/// Requires a static fault tree (dynamic events are rejected with a model
/// error; event-tree workloads are static PSA).
class scenario_engine {
 public:
  explicit scenario_engine(scenario_model model, scenario_options options = {});

  scenario_engine(const scenario_engine&) = delete;
  scenario_engine& operator=(const scenario_engine&) = delete;

  const scenario_model& model() const { return model_; }
  const scenario_options& options() const { return options_; }
  const fault_tree& expanded_tree() const { return expanded_.tree; }
  const event_tree& compiled_event_tree() const { return *et_; }
  const std::vector<std::string>& end_state_names() const { return es_names_; }

  /// Quantifies every sequence and end state (exact + optional MCS
  /// column), layers the UQ sampling on top when uq_samples > 0, and
  /// publishes the run's stats. The overload overrides the UQ knobs for
  /// one run — how the serve layer varies samples/seed per request over
  /// one compiled scenario. Safe to call concurrently: compilation is
  /// frozen at construction and run() only reads it.
  scenario_result run();
  scenario_result run(std::size_t uq_samples, std::uint64_t uq_seed);

  /// Re-evaluates the exact sequence/end-state probabilities at explicit
  /// parameter points — probability overrides on the ORIGINAL tree's
  /// basic events, resolved with the sweep grammar — off the compiled
  /// structure: no re-expansion, no recompilation, one plan sweep per
  /// point, points batched on the pool.
  std::vector<scenario_point_result> evaluate_points(
      const sweep_description& points);

 private:
  /// Per-gate MCS lists through the engine (each distinct demanded gate
  /// analysed once), recombined across each sequence's failed branches.
  void quantify_cutsets(scenario_result& out);

  /// The Monte-Carlo UQ layer: one draw per (sample, parameter) substream,
  /// one plan sweep per sample, percentile bands.
  void propagate_uncertainty(scenario_result& out, std::size_t samples,
                             std::uint64_t seed);

  /// Per-node probabilities of the original tree at the base point.
  std::vector<double> original_probs() const;

  /// Maps original-tree probabilities through the CCF trace onto the
  /// expanded tree (scale * Q(source), clamped to [0, 1]).
  std::vector<double> expanded_probs(const std::vector<double>& original) const;

  /// Runs fn(i) for i in [0, n): serial under inline_execution, else on a
  /// pool sized by options_.analysis.threads.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn) const;

  scenario_model model_;
  scenario_options options_;
  ccf_expansion expanded_;
  std::optional<event_tree> et_;           ///< anchored on expanded_.tree
  std::vector<std::string> es_names_;      ///< first-appearance order
  /// Every sequence root, then every end-state root (es_names_ order).
  event_tree_plan plan_;
  std::vector<double> base_expanded_probs_;

  /// Counters of the discarded compiler, read before freezing.
  std::size_t bdd_nodes_ = 0;
  std::size_t gates_compiled_ = 0;
  std::size_t prefix_hits_ = 0;

  /// Distributions resolved to original-tree node indices.
  std::vector<std::pair<node_index, parameter_distribution>> dists_;

  analysis_engine engine_;  ///< per-gate cutset lists (structure-cached)
  double compile_seconds_ = 0;
};

/// One-shot convenience wrapper: compile + run.
scenario_result run_scenario(scenario_model model,
                             const scenario_options& options = {});

}  // namespace sdft
