#pragma once

#include <cstdint>
#include <vector>

namespace sdft {

/// Reference to a BDD node within a bdd_manager.
using bdd_ref = std::uint32_t;

class bdd_manager;

/// A frozen evaluation plan over a set of roots of one manager: the nodes
/// reachable from the roots in ascending bdd_ref order, each stored as
/// {var, low, high} with the children remapped to plan positions.
/// Ascending ref order is topological — make() appends a node only after
/// both children exist — so one forward pass evaluates every root.
///
/// This is the code base's one probability kernel: every exact BDD
/// probability (one-shot, exact-static, modular, every scenario sequence,
/// UQ sample and sweep point) is a plan evaluation. The plan owns its
/// steps and no longer refers to the manager, which may be mutated or
/// dropped afterwards.
class bdd_plan {
 public:
  bdd_plan() = default;

  /// Collects the nodes reachable from `roots` by a DFS over a bitmap of
  /// the manager (one bit per node), then ranks them in ref order: the
  /// cost is linear in the reachable part plus size() / 64 words.
  bdd_plan(const bdd_manager& manager, const std::vector<bdd_ref>& roots);

  /// Writes into out[i] the probability that roots[i] evaluates to true
  /// when variable v is independently true with probability probs[v].
  /// Exact (Shannon decomposition, p*P(high) + (1-p)*P(low) per node).
  /// Const and thread-safe: concurrent evaluations of one plan share
  /// nothing mutable. Throws model_error when `probs` does not cover a
  /// variable the plan reads.
  void evaluate(const std::vector<double>& probs,
                std::vector<double>& out) const;

  /// Nodes one evaluation assigns a value: the inner nodes reachable from
  /// the roots plus both terminals (the convention of live_nodes()).
  std::size_t size() const { return steps_.size() + 2; }

 private:
  struct step {
    std::uint32_t var;
    std::uint32_t low;   ///< plan position; 0 and 1 are the terminals
    std::uint32_t high;
  };

  std::vector<step> steps_;             ///< step i sits at position i + 2
  std::vector<std::uint32_t> roots_;    ///< plan positions, in root order
  std::size_t vars_read_ = 0;           ///< 1 + the largest variable read
};

/// A reduced ordered binary decision diagram manager.
///
/// Implements the classic unique-table + operation-cache design (Bryant).
/// Variables are dense integers ordered by their numeric value. The manager
/// also implements Rauzy's minimal-solutions operator for coherent
/// functions, which is what turns a fault-tree BDD into its minimal
/// cutsets; this is the engine commercial tools like RiskSpectrum pair with
/// MOCUS and serves here as an independent oracle for the MOCUS module.
///
/// Nodes are never garbage collected: managers are built per analysis and
/// dropped wholesale, which matches every use in this code base.
class bdd_manager {
 public:
  bdd_manager();

  bdd_ref zero() const { return 0; }
  bdd_ref one() const { return 1; }

  /// Structure of a non-terminal node f: its variable and its cofactors
  /// (read-only access for evaluators built outside the manager).
  std::uint32_t top_var(bdd_ref f) const { return nodes_[f].var; }
  bdd_ref low(bdd_ref f) const { return nodes_[f].low; }
  bdd_ref high(bdd_ref f) const { return nodes_[f].high; }

  /// The projection function of variable `var`.
  bdd_ref var(std::uint32_t var);

  bdd_ref bdd_and(bdd_ref f, bdd_ref g);
  bdd_ref bdd_or(bdd_ref f, bdd_ref g);
  bdd_ref bdd_not(bdd_ref f);

  /// f with variable `var` fixed to `value`.
  bdd_ref restrict_var(bdd_ref f, std::uint32_t var, bool value);

  /// Probability that f evaluates to true when variable v is independently
  /// true with probability probs[v]: a one-root bdd_plan evaluation. Const,
  /// so concurrent evaluations of an already compiled diagram are safe.
  double probability(bdd_ref f, const std::vector<double>& probs) const;

  /// Freezes `roots` into an evaluation plan and consumes the manager:
  /// the unique table and every operation cache are released first, so
  /// the plan is built while only the node array is still resident, and
  /// the manager is left empty afterwards. For compile-once,
  /// evaluate-many workloads (the scenario engine).
  bdd_plan freeze(const std::vector<bdd_ref>& roots) &&;

  /// Rauzy's minimal-solutions operator for a coherent f: the result
  /// encodes exactly the minimal satisfying products of f.
  bdd_ref minimal_solutions(bdd_ref f);

  /// Enumerates the products of a minimal-solutions BDD: each inner vector
  /// is the set of variables taken positively on a 1-path with a "high"
  /// edge, in variable order. For minimal_solutions(f) of coherent f these
  /// are exactly the minimal cutsets.
  std::vector<std::vector<std::uint32_t>> enumerate_products(bdd_ref f) const;

  /// Returns f with the roles of the adjacent variables v and v+1
  /// exchanged: the result, read with the two variables' external meanings
  /// swapped, denotes the same function. This is the elementary step of
  /// sifting-based reordering. Purely functional — new nodes are created
  /// through the unique table, old ones become garbage until compact();
  /// existing refs and operation caches stay structurally valid.
  bdd_ref swap_adjacent(bdd_ref f, std::uint32_t v);

  /// Number of nodes reachable from f, terminals included — the size
  /// objective of sifting (size() also counts reordering garbage).
  std::size_t live_nodes(bdd_ref f) const;

  /// Rebuilds the manager retaining only the nodes reachable from `root`
  /// and returns the new root. Every other ref and all operation caches
  /// are invalidated; used to reclaim reordering garbage.
  bdd_ref compact(bdd_ref root);

  /// Number of allocated nodes (including both terminals and any
  /// reordering garbage; see live_nodes()).
  std::size_t size() const { return nodes_.size(); }

 private:
  struct node {
    std::uint32_t var;
    bdd_ref low;
    bdd_ref high;
  };

  /// Open-addressing map from non-zero 64-bit keys to refs (linear
  /// probing, power-of-two capacity, load <= 3/4): the operation caches.
  /// Flat arrays rather than node-based maps, so an entry costs no
  /// allocation and releasing a table frees two blocks, not one chunk per
  /// entry.
  class ref_map {
   public:
    /// The value stored under `key`, or nullptr. Invalidated by insert().
    const bdd_ref* find(std::uint64_t key) const;
    void insert(std::uint64_t key, bdd_ref value);

   private:
    std::size_t slot(std::uint64_t key) const;
    void place(std::uint64_t key, bdd_ref value);

    std::vector<std::uint64_t> keys_;  ///< 0 marks an empty slot
    std::vector<bdd_ref> values_;
    std::size_t size_ = 0;
    int shift_ = 64;
  };

  bdd_ref make(std::uint32_t var, bdd_ref low, bdd_ref high);
  std::size_t unique_slot(std::uint32_t var, bdd_ref low, bdd_ref high) const;
  void grow_unique();
  bdd_ref apply(int op, bdd_ref f, bdd_ref g);
  bdd_ref without(bdd_ref f, bdd_ref g);

  std::uint32_t var_of(bdd_ref f) const { return nodes_[f].var; }
  bool is_terminal(bdd_ref f) const { return f <= 1; }

  static constexpr std::uint32_t terminal_var = 0xffffffffU;

  std::vector<node> nodes_;
  /// Unique table: open addressing over node refs, keyed by the nodes'
  /// (var, low, high). Holds every inner node (nodes_.size() - 2 entries);
  /// 0 marks an empty slot (ref 0 is a terminal and never stored).
  std::vector<bdd_ref> unique_;
  int unique_shift_ = 64;
  ref_map op_cache_;
  ref_map without_cache_;
  ref_map minsol_cache_;
};

}  // namespace sdft
