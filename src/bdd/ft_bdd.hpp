#pragma once

#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"

namespace sdft {

/// A fault tree compiled to a BDD, variables in DFS discovery order from
/// the root. Owns its bdd_manager. The test oracle for cutsets and exact
/// probabilities; the engine's exact-static stage compiles the same way
/// and freezes the result (structure_entry).
class ft_bdd {
 public:
  /// Compiles the structure under `root`; root defaults to the top gate.
  explicit ft_bdd(const fault_tree& ft, node_index root = fault_tree::npos);

  /// Exact probability that the root fails, from the basic events'
  /// probabilities (no rare-event approximation).
  double probability() const;

  /// Exact probability with overridden per-event probabilities
  /// (indexed by node_index; events absent use their tree probability).
  double probability(
      const std::unordered_map<node_index, double>& overrides) const;

  /// All minimal cutsets of the root, as basic-event indices, canonical:
  /// each cutset sorted, ordered by (size, content).
  std::vector<cutset> minimal_cutsets() const;

  /// Number of BDD nodes held by the manager.
  std::size_t node_count() const { return manager_.size(); }

 private:
  const fault_tree& ft_;
  mutable bdd_manager manager_;
  bdd_ref root_ref_ = 0;
  std::vector<node_index> var_to_event_;            // BDD var -> node_index
};

}  // namespace sdft
