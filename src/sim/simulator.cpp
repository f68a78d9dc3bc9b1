#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "sim/mc.hpp"
#include "util/error.hpp"

namespace sdft {

simulation_result simulate_failure_probability(
    const sd_fault_tree& tree, double horizon,
    const simulation_options& options, thread_pool* pool) {
  require_model(options.runs > 0, "simulator: need at least one run");

  // The crude estimator samples run i from the substream keyed by
  // (seed, first_trajectory + i), so the failure count is that of this
  // campaign however the mc backend batches it.
  sim::mc_options mc;
  mc.method = sim::mc_method::crude;
  mc.trajectories = options.runs;
  mc.seed = options.seed;
  mc.first_trajectory = options.first_trajectory;
  mc.max_update_sweeps = options.max_update_sweeps;
  const sim::mc_result crude =
      sim::estimate_failure_probability_mc(tree, horizon, mc, pool);

  simulation_result out;
  out.runs = options.runs;
  out.failures = crude.failures;
  const double n = static_cast<double>(options.runs);
  const double p = static_cast<double>(crude.failures) / n;
  out.estimate = p;
  out.std_error = std::sqrt(p * (1.0 - p) / n);
  // Wilson score interval: robust also for very small counts.
  const double z = 1.959963984540054;
  const double z2 = z * z;
  const double centre = (p + z2 / (2 * n)) / (1 + z2 / n);
  const double half =
      z * std::sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n);
  out.ci_low = std::max(0.0, centre - half);
  out.ci_high = std::min(1.0, centre + half);
  return out;
}

}  // namespace sdft
