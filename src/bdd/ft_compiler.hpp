#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "ft/fault_tree.hpp"

namespace sdft {

/// The leaves under `roots` in DFS first-visit order: basic events, and
/// gates flagged in `stop` (indexed by node_index; empty flags none) met
/// below a root. Each gate is expanded once, so the walk is linear in the
/// DAG, not in its number of root-to-leaf paths, yet meets the leaves in
/// the order a walk of every path would.
std::vector<node_index> dfs_leaves(const fault_tree& ft,
                                   const std::vector<node_index>& roots,
                                   const std::vector<bool>& stop = {});

/// The code base's one fault-tree -> BDD compiler, and its only lowering
/// of AND/OR/atleast gates into BDD operations. Leaf `order[v]` becomes
/// variable v of `manager`; a leaf is any node given a variable (a basic
/// event, or a nested module's pseudo-event, which is then not expanded).
/// compile() is memoised per node, so every consumer — ft_bdd, the
/// engine's exact-static plan, the event-tree scenario BDD — runs the same
/// apply calls in the same order. `manager` must outlive the compiler.
class ft_compiler {
 public:
  ft_compiler(const fault_tree& ft, bdd_manager& manager,
              const std::vector<node_index>& order);

  /// The BDD of node `n`; throws model_error on a basic event without a
  /// variable.
  bdd_ref compile(node_index n);

  /// Gates lowered so far (memo hits excluded).
  std::size_t gates_compiled() const { return gates_compiled_; }

 private:
  static constexpr std::uint32_t none = 0xffffffffU;

  const fault_tree& ft_;
  bdd_manager& manager_;
  std::vector<std::uint32_t> var_of_;  ///< node -> variable, or none
  std::vector<bdd_ref> memo_;          ///< node -> BDD, or none
  std::size_t gates_compiled_ = 0;
};

}  // namespace sdft
