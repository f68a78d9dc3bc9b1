#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/ft_compiler.hpp"
#include "ft/fault_tree.hpp"
#include "sdft/sd_fault_tree.hpp"

namespace sdft {

/// Outcome of one functional event along an accident sequence.
enum class branch_outcome : std::uint8_t {
  failure,   ///< the safety function fails (its fault-tree gate is failed)
  success,   ///< the safety function succeeds (negated gate)
  bypass,    ///< the function is not demanded in this sequence
};

/// An event tree: the higher-level PSA formalism that orders the demands
/// on safety functions after an initiating event (paper §V-A). Each
/// functional event is backed by a gate of a fault tree (the failure
/// criterion of that safety function); each sequence assigns an outcome to
/// every functional event and ends in an end state (e.g. "OK", "CD").
///
/// The event tree references an external fault_tree (or the structure of
/// an sd_fault_tree) that must outlive it.
class event_tree {
 public:
  /// `initiating_event` is a basic event of `ft` (its probability is the
  /// IE frequency per mission).
  event_tree(const fault_tree& ft, node_index initiating_event,
             std::string name = "ET");

  /// Declares a functional event backed by `gate`, demanded after all
  /// previously added ones. Returns its index.
  std::size_t add_functional_event(std::string name, node_index gate);

  /// Adds a sequence: `outcomes[i]` is the branch taken at functional
  /// event i (must cover all functional events), `end_state` labels the
  /// consequence. Returns the sequence index.
  std::size_t add_sequence(std::vector<branch_outcome> outcomes,
                           std::string end_state);

  std::size_t num_functional_events() const { return functional_.size(); }
  std::size_t num_sequences() const { return sequences_.size(); }
  const std::string& name() const { return name_; }
  const fault_tree& ft() const { return ft_; }
  node_index initiating_event() const { return initiating_; }
  node_index functional_gate(std::size_t i) const {
    return functional_[i].gate;
  }
  const std::string& functional_name(std::size_t i) const {
    return functional_[i].name;
  }
  const std::vector<branch_outcome>& sequence_outcomes(std::size_t s) const {
    return sequences_[s].outcomes;
  }
  const std::string& end_state(std::size_t s) const {
    return sequences_[s].end_state;
  }

  /// Checks that every sequence covers every functional event and that the
  /// sequences form a valid branch set (no two sequences with identical
  /// outcomes). Throws model_error.
  void validate() const;

 private:
  struct functional_event {
    std::string name;
    node_index gate;
  };
  struct sequence {
    std::vector<branch_outcome> outcomes;
    std::string end_state;
  };

  const fault_tree& ft_;
  node_index initiating_;
  std::string name_;
  std::vector<functional_event> functional_;
  std::vector<sequence> sequences_;
};

/// The frozen form of an event tree's compiled roots (see
/// event_tree_bdd::freeze): the bdd_plan over those roots plus the
/// variable -> basic-event map it reads node probabilities through.
/// Immutable once built; evaluate() is const and thread-safe.
class event_tree_plan {
 public:
  /// Writes the probability of every frozen root, in freeze() order, with
  /// per-node probabilities indexed by node_index of the referenced tree
  /// (only basic events reachable from the roots are read). One forward
  /// sweep over the reachable nodes, whatever the number of roots.
  void evaluate(const std::vector<double>& node_probs,
                std::vector<double>& out) const;

  /// BDD nodes one evaluation visits (reachable nodes, terminals included).
  std::size_t nodes() const { return plan_.size(); }

 private:
  friend class event_tree_bdd;

  bdd_plan plan_;
  std::vector<node_index> var_to_event_;
};

/// Multi-root BDD compilation of every fault-tree node an event tree
/// references: one manager, one variable order (discovery order over the
/// IE then the functional gates — deterministic), one ft_compiler shared
/// by all gates. Sequence BDDs are built as prefix products (IE ∧
/// outcome_0 ∧ …) and memoised per (partial product, functional event,
/// outcome), so sequences differing in one late branch reuse the common
/// prefix; end states are built on the sequence trie. BDD operations are
/// canonical, so a probability read off a shared compilation is
/// bit-identical to a one-shot compilation of the same root — the contract
/// the scenario engine's one-pass mode relies on.
///
/// Compilation (sequence()/end_state()) mutates the manager and is not
/// thread-safe. Compile-once, evaluate-many callers freeze() the roots
/// into an event_tree_plan and drop the compiler.
class event_tree_bdd {
 public:
  explicit event_tree_bdd(const event_tree& et);
  event_tree_bdd(const event_tree_bdd&) = delete;
  event_tree_bdd& operator=(const event_tree_bdd&) = delete;

  /// BDD of sequence `s`: IE and the outcome of every demanded functional
  /// event (success branches negated — exact, not rare-event).
  bdd_ref sequence(std::size_t s);

  /// BDD of the union of all sequences whose end state is `end_state`, built
  /// bottom-up on the sequence trie (zero() if none). Validates the tree.
  bdd_ref end_state(const std::string& end_state);

  /// Probability of `f` under the referenced tree's own probabilities.
  double probability(bdd_ref f) const;

  /// Freezes `roots` into an evaluation plan and consumes the compiler:
  /// the prefix cache and the manager's hash tables are released before
  /// the plan is built, and the node array after it.
  /// Read the counters below first; they describe the compilation.
  event_tree_plan freeze(const std::vector<bdd_ref>& roots) &&;

  std::size_t num_variables() const { return var_to_event_.size(); }
  std::size_t nodes() const { return manager_.size(); }
  std::size_t gates_compiled() const { return compiler_.gates_compiled(); }
  std::size_t prefix_hits() const { return prefix_hits_; }

 private:
  friend struct event_tree_bdd_test_access;  ///< the fold oracle in tests
  /// E of the trie node over trie_order_[lo, hi) at functional event depth.
  bdd_ref end_state_below(std::size_t lo, std::size_t hi, std::size_t depth,
                          const std::string& end_state);

  const event_tree& et_;
  bdd_manager manager_;
  std::vector<node_index> var_to_event_;
  ft_compiler compiler_;  ///< over manager_, declared after it
  std::unordered_map<std::uint64_t, bdd_ref> prefix_;
  std::size_t prefix_hits_ = 0;
  std::vector<std::size_t> trie_order_;  ///< sequences by outcome vector
};

/// Exact probability of sequence `s`: P[IE and the outcome of every
/// functional event], evaluated on a BDD of the underlying fault tree so
/// success branches (negations) are handled exactly. Exponential only in
/// BDD size, not in basic events. Validates the event tree.
double sequence_probability_exact(const event_tree& et, std::size_t s);

/// Exact probability of reaching any sequence whose end state equals
/// `end_state`. Validates the event tree.
double end_state_probability_exact(const event_tree& et,
                                   const std::string& end_state);

/// Compiles the sequences with end state `end_state` into a coherent
/// fault tree suitable for the MCS pipeline: top = OR over sequences,
/// sequence = AND(IE, failed functional gates). Success branches are
/// dropped (the standard conservative "delete-term-free" treatment in PSA
/// tools, valid for rare events). The returned tree owns copies of the
/// referenced subtrees. Synthesized gate names are deduplicated against
/// the copied nodes (a pre-existing "<et>::SEQ0" node gets out of the
/// way, not a duplicate-name error).
fault_tree end_state_fault_tree(const event_tree& et,
                                const std::string& end_state);

/// A demand-ordering trigger suggestion (paper §V-A: "event trees usually
/// capture the order in which safety functions are demanded... offering a
/// possibility for long triggering chains"): for each consecutive pair of
/// functional events (i, i+1), propose that the failure of event i's gate
/// triggers the untriggered dynamic basic events under event i+1's gate.
struct trigger_suggestion {
  node_index trigger_gate;            ///< gate of functional event i
  std::vector<node_index> events;     ///< dynamic events under event i+1
};

std::vector<trigger_suggestion> suggest_demand_triggers(
    const event_tree& et, const sd_fault_tree& tree);

}  // namespace sdft
