#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace sdft {

/// State index within a ctmc.
using state_index = std::uint32_t;

/// A finite continuous-time Markov chain (paper §III-A): an initial
/// distribution, a rate matrix held sparsely per row, and a set of failed
/// states.
///
/// Rates accumulate: calling add_rate(s, s', r) twice sums the rates, which
/// matches merging parallel transitions of the product construction.
class ctmc {
 public:
  explicit ctmc(std::size_t num_states = 0);

  std::size_t num_states() const { return rows_.size(); }

  /// Appends a state; returns its index.
  state_index add_state();

  /// Adds `rate >= 0` from `from` to `to` (accumulating). Self-loops are
  /// rejected: they are meaningless in a CTMC rate matrix.
  void add_rate(state_index from, state_index to, double rate);

  /// Sets the initial probability of `state` (overwriting).
  void set_initial(state_index state, double p);

  void set_failed(state_index state, bool failed = true);

  double initial(state_index state) const { return initial_[state]; }
  const std::vector<double>& initial_distribution() const { return initial_; }
  bool failed(state_index state) const { return failed_[state] != 0; }

  /// Per-state failed flags (1 = failed), the target of reach_failed_*.
  const std::vector<char>& failed_flags() const { return failed_; }

  /// Outgoing transitions of `state` as (target, rate) pairs.
  const std::vector<std::pair<state_index, double>>& transitions_from(
      state_index state) const {
    return rows_[state];
  }

  /// Sum of outgoing rates of `state`.
  double exit_rate(state_index state) const;

  /// Largest exit rate over all states (the uniformisation rate base).
  double max_exit_rate() const;

  /// Sum of the initial distribution (should be ~1 for a valid chain).
  double initial_mass() const;

  /// Indices of failed states.
  std::vector<state_index> failed_states() const;

  /// Checks distribution mass ~1 and non-negative rates; throws model_error.
  void validate() const;

 private:
  std::vector<std::vector<std::pair<state_index, double>>> rows_;
  std::vector<double> initial_;
  std::vector<char> failed_;
};

/// Convenience factory: the two-state chain of a repairable component that
/// starts working, fails with `failure_rate` and is repaired with
/// `repair_rate` (Example 2 of the paper). State 0 = ok, state 1 = failed.
ctmc make_repairable(double failure_rate, double repair_rate);

/// Convenience factory for a static basic event expressed as a chain
/// (paper §III-C): two states, zero rate matrix, initial probability `p`
/// of starting failed. State 0 = ok, state 1 = failed.
ctmc make_static_event(double p);

}  // namespace sdft
