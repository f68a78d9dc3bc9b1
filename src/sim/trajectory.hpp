#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sdft/sd_fault_tree.hpp"
#include "util/rng.hpp"

namespace sdft::sim {

/// The mutable part of one simulated trajectory. The immutable model data
/// (chains, trigger wiring, gate thresholds) lives in trajectory_model, so
/// one model instance can drive many concurrent trajectories — each worker
/// owns its own state and rng.
struct trajectory_state {
  double now = 0.0;
  /// Likelihood-ratio weight: 1 under the nominal law, Π p/q over biased
  /// draws under failure forcing (sim/mc.hpp).
  double weight = 1.0;
  /// Chain-local state per dynamic component (trajectory_model component
  /// order); statics have no entry semantics here and stay 0.
  std::vector<state_index> locals;
  /// Per-node failure flags, indexed by node_index over the whole tree:
  /// the component status for leaves, the structure function for gates.
  /// Kept current by trajectory_model after every change of a leaf.
  std::vector<char> node_failed;
  /// Per-node count of failed inputs (0 for leaves): a gate is failed iff
  /// its count reaches its threshold (AND: all inputs, OR: one, k-of-n: k).
  std::vector<std::uint32_t> failed_inputs;

  /// Scratch owned by the state so that no model call allocates once the
  /// buffers have grown: importance values, the k-of-n sort buffer, the
  /// propagation stack and the trigger switches of one settle sweep.
  std::vector<double> phi;
  std::vector<double> phi_sort;
  std::vector<node_index> pending;
  std::vector<std::uint32_t> switched;
};

/// Why advance() returned.
enum class advance_outcome {
  failed,    ///< top gate failed before the horizon
  survived,  ///< horizon reached with the top gate intact
  crossed,   ///< importance reached the requested threshold (top intact)
};

/// How one static event is drawn: it fails iff a uniform draw is below q,
/// and the trajectory weight is multiplied by fail_weight (p/q) or
/// ok_weight ((1-p)/(1-q)). Both weights are exactly 1 when q == p, so the
/// nominal law leaves every weight at 1.
struct static_draw {
  double q = 0.0;
  double fail_weight = 1.0;
  double ok_weight = 1.0;
};

/// Shared, immutable trajectory engine over one SD fault tree: samples
/// initial states (optionally under a biased static-event law, tracking
/// likelihood weights), advances the CTMC race with instantaneous trigger
/// settling, and evaluates the importance function used by splitting.
///
/// Gate states are kept incrementally: every gate carries a failed-input
/// counter, init() starts from the all-working state computed once here
/// and flips only the leaves that fail, and advance() flips only the leaf
/// that jumped. A flip updates the parents' counters and recurses only
/// into parents whose status changes.
///
/// This is the core the plain simulator (sim/simulator.hpp) and all MC
/// estimators (sim/mc.hpp) are built on. Thread-safe for concurrent use:
/// all mutable data lives in trajectory_state.
class trajectory_model {
 public:
  /// Static-event law in component order (entries of dynamic components
  /// are unused).
  using static_law = std::vector<static_draw>;

  explicit trajectory_model(const sd_fault_tree& tree,
                            std::size_t max_update_sweeps = 64);

  /// The static-event law with static event e failing with bias[e]
  /// (indexed by node_index; entries of non-static nodes are ignored), or
  /// the nominal law for a null bias. Computed once per campaign.
  static_law make_static_law(const std::vector<double>* bias) const;

  /// Samples the time-0 state into `s` (resizing its buffers): statics
  /// fail under `law` (the nominal law when null), chains draw their
  /// initial distribution, and triggers are settled. s.weight accumulates
  /// the likelihood ratio of the static draws. Returns true iff the top
  /// gate is failed at time 0.
  bool init(trajectory_state& s, rng& random,
            const static_law* law = nullptr) const;

  /// Advances the trajectory from s.now until the top gate fails, the
  /// horizon is reached, or — when phi_threshold <= 1 — the importance
  /// function reaches phi_threshold. The state is left at the stopping
  /// point, so a `crossed` state can be snapshotted and re-advanced
  /// (fixed-effort splitting does exactly that).
  ///
  /// Note: init() already settles time 0; callers must check its return
  /// (or importance()) before the first advance.
  advance_outcome advance(trajectory_state& s, double horizon, rng& random,
                          double phi_threshold = 2.0) const;

  /// Importance function over the settled state, in [0, 1] with
  /// phi == 1 iff the top gate is failed: basic = failed ? 1 : 0,
  /// OR = max(children), AND = mean(children), atleast(k) = mean of the
  /// k largest children. Monotone in the failed set, so crossings are
  /// well-defined level entries. Uses the scratch buffers of `s`.
  double importance(trajectory_state& s) const;

  /// Longest leaf-to-top path length (edges) in the structure — the
  /// natural scale for the number of splitting levels.
  std::size_t depth() const { return depth_; }

  /// Number of components (basic events), the width of
  /// trajectory_state::locals.
  std::size_t num_components() const { return components_.size(); }

  const sd_fault_tree& tree() const { return tree_; }

 private:
  /// Per-component view: the leaf, its per-state table offset and the
  /// trigger wiring (no chain for static events).
  struct component {
    node_index event = 0;
    const ctmc* chain = nullptr;
    std::uint32_t first_state = 0;  // offset into states_
    node_index trigger_gate = fault_tree::npos;
    const triggered_ctmc* trigger = nullptr;
  };

  /// Per-(component, chain state) values read in the hot loop.
  struct state_info {
    double exit_rate = 0.0;
    double initial = 0.0;
    bool failed = false;
  };

  /// One node of the importance sweep over the top gate's sub-DAG.
  struct phi_step {
    node_index node = 0;
    bool gate = false;
    gate_type type = gate_type::or_gate;
    std::uint32_t k = 0;
    std::uint32_t begin = 0;  // input range in phi_inputs_
    std::uint32_t end = 0;
  };

  /// Sets leaf `leaf` to `failed` and propagates the change upwards.
  void set_leaf(trajectory_state& s, node_index leaf, bool failed) const;

  /// Applies trigger updates until stable; returns whether the top gate is
  /// failed in the settled state.
  bool settle(trajectory_state& s) const;

  const sd_fault_tree& tree_;
  std::size_t max_update_sweeps_;
  node_index top_;
  std::size_t depth_ = 0;

  std::vector<component> components_;
  std::vector<std::uint32_t> dynamic_;    // components with a chain
  std::vector<std::uint32_t> triggered_;  // components with a trigger
  std::vector<state_info> states_;
  static_law nominal_law_;

  /// Parents of node n: parents_[parent_begin_[n] .. parent_begin_[n+1]),
  /// one entry per input occurrence.
  std::vector<std::uint32_t> parent_begin_;
  std::vector<node_index> parents_;
  std::vector<std::uint32_t> threshold_;

  /// The all-working state: leaves working, constant and derived gate
  /// flags and counters evaluated once.
  std::vector<char> base_failed_;
  std::vector<std::uint32_t> base_inputs_;

  std::vector<phi_step> phi_plan_;
  std::vector<node_index> phi_inputs_;
};

}  // namespace sdft::sim
