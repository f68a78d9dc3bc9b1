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

class thread_pool;
struct event_tree_compilation;

/// The frozen form of an event tree's compiled roots (compile_event_tree):
/// one bdd_plan per compilation job, each with the root slots it fills, plus
/// the variable -> basic-event map every plan reads node probabilities
/// through (all jobs share one variable order). Immutable once built;
/// evaluate() is const and thread-safe.
class event_tree_plan {
 public:
  /// Writes the probability of every root into its slot, with per-node
  /// probabilities indexed by node_index of the referenced tree (only basic
  /// events reachable from the roots are read). One forward sweep of each
  /// job's plan, in job order, whatever the number of roots.
  void evaluate(const std::vector<double>& node_probs,
                std::vector<double>& out) const;

  /// BDD nodes one evaluation visits: every plan's reachable nodes,
  /// terminals included, summed over the plans.
  std::size_t nodes() const;

 private:
  friend event_tree_compilation compile_event_tree(
      const event_tree& et, const std::vector<std::string>& end_states,
      thread_pool* pool);

  struct part {
    bdd_plan plan;
    std::vector<std::size_t> slots;  ///< output slot of each plan root
  };
  std::vector<part> parts_;
  std::vector<node_index> var_to_event_;
  std::size_t num_roots_ = 0;
};

/// Multi-root BDD compilation of the fault-tree nodes an event tree
/// references: one manager, one variable order (discovery order over the
/// IE then the functional gates — deterministic), one ft_compiler shared
/// by all gates.
///
/// A sequence is built bottom-up, in variable order: S_k = ±G_k ∧ S_{k+1}
/// from the last demanded functional event to the first, then IE ∧ S_0.
/// The order puts each gate's variables above the later gates', so a step
/// lays G_k on top of the suffix product instead of copying a whole prefix
/// product under G_{k+1}. Suffix products are memoised per (suffix product,
/// functional event, outcome), so sequences differing in one early branch
/// reuse their common suffix; bypass outcomes are skipped. End states are
/// built on the sequence trie. BDD operations are canonical, so a sequence
/// is the same node as the top-down product (IE ∧ ±G_0) ∧ ±G_1 ∧ … in the
/// same manager, and a probability read off any compilation is
/// bit-identical to a one-shot compilation of the same root — the contract
/// the scenario engine's partitioned compile relies on.
///
/// Compilation (sequence()/end_state()) mutates the manager and is not
/// thread-safe. compile_event_tree() runs one compiler per job and
/// freeze()s each into its own plan.
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

  /// Freezes `roots` into an evaluation plan over this compilation's
  /// variables and consumes the compiler: the suffix memo and the manager's
  /// hash tables are released before the plan is built, and the node array
  /// after it. Read the counters below first; they describe the compilation.
  bdd_plan freeze(const std::vector<bdd_ref>& roots) &&;

  std::size_t num_variables() const { return var_to_event_.size(); }
  std::size_t nodes() const { return manager_.size(); }
  std::size_t gates_compiled() const { return compiler_.gates_compiled(); }
  std::size_t suffix_hits() const { return suffix_hits_; }

 private:
  friend struct event_tree_bdd_test_access;  ///< the fold oracles in tests
  /// E of the trie node over trie_order_[lo, hi) at functional event depth.
  bdd_ref end_state_below(std::size_t lo, std::size_t hi, std::size_t depth,
                          const std::string& end_state);

  const event_tree& et_;
  bdd_manager manager_;
  std::vector<node_index> var_to_event_;
  ft_compiler compiler_;  ///< over manager_, declared after it
  std::unordered_map<std::uint64_t, bdd_ref> suffix_;
  std::size_t suffix_hits_ = 0;
  std::vector<std::size_t> trie_order_;  ///< sequences by outcome vector
};

/// Result of compile_event_tree(): the frozen plan and the counters of the
/// compilation, which do not depend on the pool.
struct event_tree_compilation {
  /// Roots: every sequence in index order, then every requested end state.
  event_tree_plan plan;
  std::size_t bdd_nodes = 0;  ///< nodes allocated, summed over the managers
  /// Distinct gates lowered (each job lowers its own copy; counted once).
  std::size_t gates_compiled = 0;
  std::size_t suffix_hits = 0;  ///< suffix-memo hits, summed over the jobs
};

/// Compiles every sequence of `et` and every end state in `end_states` in
/// independent jobs, each with its own event_tree_bdd, frozen into its own
/// plan as soon as it finishes. Sequences are split by the outcomes of their
/// last d functional events, d <= min(#FE, 3) the largest with
/// 2^d * 64 <= #sequences: sequences in different jobs share no suffix
/// product, so the split duplicates only the gate BDDs, and the end states
/// form one more job on the sequence trie. A tree of fewer than 128
/// sequences compiles every sequence and end state in one job. Jobs run
/// through parallel_for on `pool` (null = serially on the caller). Plans,
/// values and counters are the same at any thread count. Validates the
/// tree.
event_tree_compilation compile_event_tree(
    const event_tree& et, const std::vector<std::string>& end_states,
    thread_pool* pool);

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
