#pragma once

#include <vector>

#include "ft/fault_tree.hpp"

namespace sdft {

/// Finds the module roots of `ft`: gates whose strict subtree is
/// referenced from nowhere outside the subtree. Modules are statistically
/// independent of the rest of the tree, the key fact behind modular
/// fault-tree analysis (Dutuit & Rauzy) and behind the mixed static/
/// dynamic approach of [16] the paper compares against.
///
/// The top gate is always a module. Linear time: one DFS from the top
/// assigns visit timestamps (revisits touch a node without descending), a
/// bottom-up sweep aggregates each gate's descendant first/last touches,
/// and a gate is a module iff those all fall strictly inside the gate's
/// own first-expansion window. Returns the top first, then module gates
/// in DFS first-visit order.
std::vector<node_index> find_modules(const fault_tree& ft);

}  // namespace sdft
