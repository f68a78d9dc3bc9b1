#pragma once

#include <vector>

#include "ft/fault_tree.hpp"

namespace sdft {

/// Evaluator restricted to the sub-DAG feeding a set of target nodes: the
/// topological order is filtered down to the targets' descendant closure,
/// so evaluating costs only the nodes that can influence the targets.
/// The product-CTMC builder uses two of these — one over the trigger
/// gates (for settle()) and one over the top gate (for is_failed()) —
/// instead of sweeping the whole MCS-model tree for either question.
///
/// evaluate() writes only the restricted nodes of `out`; entries outside
/// the closure are left untouched, so callers must only read targets (or
/// their descendants) from the output.
class subtree_evaluator {
 public:
  subtree_evaluator(const fault_tree& ft,
                    const std::vector<node_index>& targets)
      : ft_(ft) {
    std::vector<char> needed(ft.size(), 0);
    // Descendant closure by downward sweep over the reverse topological
    // order: a node is needed if it is a target or feeds a needed gate.
    const std::vector<node_index> topo = ft.topo_order();
    for (node_index t : targets) needed[t] = 1;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      if (!needed[*it]) continue;
      const ft_node& node = ft.node(*it);
      if (node.kind != node_kind::gate) continue;
      for (node_index child : node.inputs) needed[child] = 1;
    }
    for (node_index n : topo) {
      if (needed[n]) topo_.push_back(n);
    }
  }

  bool empty() const { return topo_.empty(); }

  /// Writes failure flags for the restricted nodes into `out` (which must
  /// be pre-sized to ft.size(); the caller owns and reuses the buffer).
  void evaluate(const std::vector<char>& failed_basic,
                std::vector<char>& out) const {
    for (node_index n : topo_) {
      const ft_node& node = ft_.node(n);
      if (node.kind == node_kind::basic) {
        out[n] = failed_basic[n];
      } else if (node.type == gate_type::and_gate) {
        char all = 1;
        for (node_index child : node.inputs) all &= out[child];
        out[n] = all;
      } else if (node.type == gate_type::atleast_gate) {
        std::uint32_t count = 0;
        for (node_index child : node.inputs) count += out[child] ? 1U : 0U;
        out[n] = count >= node.k ? 1 : 0;
      } else {
        char any = 0;
        for (node_index child : node.inputs) any |= out[child];
        out[n] = any;
      }
    }
  }

 private:
  const fault_tree& ft_;
  std::vector<node_index> topo_;
};

}  // namespace sdft
