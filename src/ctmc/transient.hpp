#pragma once

#include <cstddef>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/uniformised.hpp"

namespace sdft {

/// Numerical accuracy for uniformisation (truncated Poisson tail mass).
inline constexpr double default_transient_epsilon = 1e-10;

/// Instrumentation of one uniformisation run.
struct transient_stats {
  /// SpMV steps the plain Fox–Glynn loop would execute (the window's
  /// right edge).
  std::size_t steps_planned = 0;

  /// SpMV steps actually executed before a cutoff fired (== steps_planned
  /// when neither cutoff applies).
  std::size_t steps_taken = 0;

  /// Absorbed-mass bound fired: the remaining Poisson tail times the
  /// still-live probability mass dropped below the termination threshold.
  bool early_terminated = false;

  /// Steady-state detection fired: successive iterates stopped moving.
  bool steady_state = false;

  /// Largest number of live (non-absorbing, mass-carrying) states the
  /// frontier SpMV iterated over in one step.
  std::size_t peak_frontier = 0;

  std::size_t steps_saved() const { return steps_planned - steps_taken; }
};

/// Optional knobs of the uniformisation loop.
struct transient_controls {
  /// Leave the Fox–Glynn loop before its right edge when one of two
  /// cutoffs fires, each adding at most epsilon/100 to the truncation
  /// error:
  ///  - early termination: the remaining Poisson tail times the live (not
  ///    yet absorbed) mass bounds the residual below epsilon/100;
  ///    absorbing states are extrapolated with their current (monotone)
  ///    mass;
  ///  - steady state: ||current - next||_1 times the remaining step count
  ///    drops below epsilon/100 (the L1 contraction of a stochastic matrix
  ///    bounds all further movement by that product).
  /// Off runs the full window: the reference the cutoffs are tested
  /// against.
  bool early_exit = true;

  /// Collects loop counters when non-null.
  transient_stats* stats = nullptr;
};

/// Transient state distribution of `chain` at time `t >= 0` by
/// uniformisation with Fox–Glynn Poisson weights. The SpMV iterates a
/// live-state frontier: states are touched only once probability mass
/// reaches them.
std::vector<double> transient_distribution(
    const ctmc& chain, double t, double epsilon = default_transient_epsilon,
    const transient_controls& controls = {});

/// Time-bounded reachability Pr[Reach<=t(F)] of the failed states of
/// `chain` (paper §III-C2): failed states are made absorbing and the
/// transient probability mass on them at time t is returned.
double reach_failed_probability(const ctmc& chain, double t,
                                double epsilon = default_transient_epsilon,
                                const transient_controls& controls = {});

/// As reach_failed_probability, but for an arbitrary target set given as
/// per-state flags (size num_states).
double reach_probability(const ctmc& chain, const std::vector<char>& target,
                         double t,
                         double epsilon = default_transient_epsilon,
                         const transient_controls& controls = {});

/// As reach_probability, from a prebuilt uniformised form: `dtmc` must have
/// been built with the `target` rows absorbing, and `initial` is the
/// chain's initial distribution (size dtmc.n). The ctmc overloads build
/// exactly this form and run the same loop, so a chain uniformised once
/// and solved at several horizons reproduces each fresh solve bit for bit.
/// The chain is not validated here: that is its builder's job.
double reach_probability(const uniformised_dtmc& dtmc,
                         const std::vector<double>& initial,
                         const std::vector<char>& target, double t,
                         double epsilon = default_transient_epsilon,
                         const transient_controls& controls = {});

}  // namespace sdft
