#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/ordering.hpp"
#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"

namespace sdft {

/// A fault tree compiled to a BDD.
///
/// Variables are assigned to basic events according to the selected
/// bdd_ordering (DFS discovery order by default). Owns its bdd_manager.
class ft_bdd {
 public:
  /// Compiles the structure under `root`; root defaults to the top gate.
  explicit ft_bdd(const fault_tree& ft, node_index root = fault_tree::npos,
                  bdd_ordering ordering = bdd_ordering::dfs);

  /// Exact probability that the root fails, from the basic events'
  /// probabilities (no rare-event approximation).
  double probability() const;

  /// Exact probability with overridden per-event probabilities
  /// (indexed by node_index; events absent use their tree probability).
  double probability(
      const std::unordered_map<node_index, double>& overrides) const;

  /// All minimal cutsets of the root, as basic-event indices. The list is
  /// canonical (each cutset sorted, ordered by (size, content)) and thus
  /// identical for every variable ordering.
  std::vector<cutset> minimal_cutsets() const;

  /// Number of BDD nodes held by the manager. After sifting this is the
  /// compacted (live) count.
  std::size_t node_count() const { return manager_.size(); }

  bdd_ordering ordering() const { return ordering_; }

  /// Adjacent-variable swaps performed by sifting (0 unless
  /// bdd_ordering::sift ran).
  std::size_t sift_swaps() const { return sift_swaps_; }

 private:
  /// Rudell sifting on the compiled BDD: move every variable to its
  /// locally best position, compacting the manager between variables.
  void sift();

  /// Swaps variable positions p and p+1 (BDD transform + event maps).
  void swap_positions(std::uint32_t p);

  const fault_tree& ft_;
  mutable bdd_manager manager_;
  bdd_ref root_ref_ = 0;
  bdd_ordering ordering_ = bdd_ordering::dfs;
  std::size_t sift_swaps_ = 0;
  std::vector<node_index> var_to_event_;            // BDD var -> node_index
};

/// Exact top-gate failure probability by modular decomposition: each
/// module (find_modules() in ft/modules.hpp) is compiled to its own
/// (small) BDD with nested modules folded into pseudo basic events
/// carrying their already-computed probability. Equal to
/// ft_bdd(ft).probability() but with BDDs only ever as large as one
/// module.
double modular_probability(const fault_tree& ft);

}  // namespace sdft
