#pragma once

#include <cstdint>
#include <vector>

#include "sdft/sd_fault_tree.hpp"

namespace sdft {

class thread_pool;

/// Options of the Monte-Carlo simulator.
struct simulation_options {
  std::size_t runs = 100'000;
  std::uint64_t seed = 1;

  /// Global stream offset: run i draws from the counter-based substream
  /// keyed by (seed, first_trajectory + i), never from a shared sequential
  /// stream. Campaigns [0, n) and [n, n + m) therefore concatenate to
  /// exactly the campaign [0, n + m), and per-run results are independent
  /// of how many runs came before.
  std::size_t first_trajectory = 0;

  /// Bound on trigger-update sweeps per instantaneous step (acyclic
  /// triggering settles within the trigger depth; exceeding this indicates
  /// a broken model and throws).
  std::size_t max_update_sweeps = 64;
};

/// Result of a simulation campaign: a binomial estimate of the failure
/// probability with its standard error and a 95% confidence interval.
struct simulation_result {
  double estimate = 0;
  double std_error = 0;
  double ci_low = 0;
  double ci_high = 0;
  std::size_t runs = 0;
  std::size_t failures = 0;

  /// True iff `p` lies within the 95% confidence interval.
  bool consistent_with(double p) const { return p >= ci_low && p <= ci_high; }
};

/// Estimates Pr[Reach<=t(F)] of the SD fault tree semantics (paper §III-C)
/// by discrete-event simulation: each run samples every basic event's
/// trajectory (static events fail at time 0 or never; dynamic chains jump
/// with exponential holding times; trigger switches are applied
/// instantaneously whenever gate states change) and reports whether the
/// top gate ever failed before the horizon.
///
/// Unlike the exact product chain this never builds a global state space,
/// so it validates the analysis pipeline on models far beyond product-CTMC
/// reach (e.g. the fully dynamic BWR study).
///
/// The runs are the mc backend's crude campaign
/// (sim::estimate_failure_probability_mc with mc_method::crude); this
/// adapter replaces its normal interval by the binomial Wilson interval.
/// The runs spread over `pool` (null = the calling thread); the failure
/// count and the interval are bit-identical at any pool size.
simulation_result simulate_failure_probability(
    const sd_fault_tree& tree, double horizon,
    const simulation_options& options = {}, thread_pool* pool = nullptr);

}  // namespace sdft
