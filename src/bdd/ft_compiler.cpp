#include "bdd/ft_compiler.hpp"

#include <utility>

#include "util/error.hpp"

namespace sdft {

std::vector<node_index> dfs_leaves(const fault_tree& ft,
                                   const std::vector<node_index>& roots,
                                   const std::vector<bool>& stop) {
  std::vector<node_index> leaves;
  std::vector<bool> seen(ft.size(), false);
  std::vector<std::pair<node_index, std::size_t>> stack;  // gate, next input
  const auto enter = [&](node_index n, bool is_root) {
    if (seen[n]) return;
    seen[n] = true;
    if (ft.is_basic(n) || (!is_root && !stop.empty() && stop[n])) {
      leaves.push_back(n);
    } else {
      stack.emplace_back(n, 0);
    }
  };
  for (node_index root : roots) {
    enter(root, true);
    while (!stack.empty()) {
      auto& [gate, next_input] = stack.back();
      const auto& inputs = ft.node(gate).inputs;
      if (next_input == inputs.size()) {
        stack.pop_back();
      } else {
        enter(inputs[next_input++], false);
      }
    }
  }
  return leaves;
}

ft_compiler::ft_compiler(const fault_tree& ft, bdd_manager& manager,
                         const std::vector<node_index>& order)
    : ft_(ft),
      manager_(manager),
      var_of_(ft.size(), none),
      memo_(ft.size(), none) {
  for (std::uint32_t v = 0; v < order.size(); ++v) var_of_[order[v]] = v;
}

bdd_ref ft_compiler::compile(node_index n) {
  if (memo_[n] != none) return memo_[n];
  bdd_ref ref;
  if (var_of_[n] != none) {
    ref = manager_.var(var_of_[n]);
  } else if (ft_.is_basic(n)) {
    throw model_error("bdd: basic event '" + ft_.node(n).name +
                      "' has no variable");
  } else {
    const auto& gate = ft_.node(n);
    ++gates_compiled_;
    if (gate.type == gate_type::atleast_gate) {
      // Threshold DP over the inputs: at_least[j] after i children is
      // "at least j of the first i are failed". Polynomial in k * N,
      // no C(N, k) expansion.
      std::vector<bdd_ref> at_least(gate.k + 1, manager_.zero());
      at_least[0] = manager_.one();
      for (node_index child : gate.inputs) {
        const bdd_ref c = compile(child);
        for (std::uint32_t j = gate.k; j >= 1; --j) {
          at_least[j] = manager_.bdd_or(at_least[j],
                                        manager_.bdd_and(c, at_least[j - 1]));
        }
      }
      ref = at_least[gate.k];
    } else {
      const bool is_and = gate.type == gate_type::and_gate;
      ref = is_and ? manager_.one() : manager_.zero();
      for (node_index child : gate.inputs) {
        const bdd_ref c = compile(child);
        ref = is_and ? manager_.bdd_and(ref, c) : manager_.bdd_or(ref, c);
      }
    }
  }
  memo_[n] = ref;
  return ref;
}

}  // namespace sdft
