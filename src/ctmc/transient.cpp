#include "ctmc/transient.hpp"

#include <algorithm>
#include <cmath>

#include "ctmc/uniformised.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/fox_glynn.hpp"

namespace sdft {

namespace {

void require_horizon(double t) {
  require_model(t >= 0.0 && std::isfinite(t),
                "transient analysis requires a finite horizon t >= 0");
}

/// The one uniformisation loop every entry point runs.
std::vector<double> transient_impl(const uniformised_dtmc& dtmc,
                                   const std::vector<double>& initial,
                                   double t, double epsilon,
                                   const transient_controls& controls) {
  require_horizon(t);
  require_model(initial.size() == dtmc.n,
                "transient analysis: initial vector has wrong size");

  transient_stats local_stats;
  transient_stats& stats =
      controls.stats != nullptr ? *controls.stats : local_stats;
  stats = {};

  const std::size_t n = dtmc.n;
  std::vector<double> current = initial;
  if (t == 0.0 || dtmc.q * t < 1e-300) return current;

  const poisson_window window = fox_glynn(dtmc.q * t, epsilon);
  stats.steps_planned = window.right;
  stats.steps_taken = window.right;

  // Each cutoff below may add at most this much to the truncation error,
  // keeping the total well inside the requested epsilon.
  const double cutoff = epsilon * 1e-2;

  // Frontier bookkeeping: `reached` lists the states carrying probability
  // mass, `live` the subset with off-diagonal rows (the only states the
  // SpMV has to read). Both only grow: the inflated uniformisation rate
  // keeps every diagonal positive, so mass never drains out of a state.
  std::vector<char> in_reached(n, 0);
  std::vector<state_index> reached;
  std::vector<state_index> live;
  const auto touch = [&](state_index s) {
    if (in_reached[s]) return;
    in_reached[s] = 1;
    reached.push_back(s);
    if (!dtmc.absorbing_row(s)) live.push_back(s);
  };
  for (state_index s = 0; s < n; ++s) {
    if (current[s] > 0.0) touch(s);
  }

  std::vector<double> result(n, 0.0);
  std::vector<double> next(n, 0.0);  // zero outside `reached`, always
  double weight_done = 0.0;

  for (std::size_t k = 0; k <= window.right; ++k) {
    const double w = k >= window.left ? window.weight(k) : 0.0;
    if (w != 0.0) {
      for (state_index s : reached) result[s] += w * current[s];
      weight_done += w;
    }
    if (k == window.right) break;
    const double tail = std::max(0.0, 1.0 - weight_done);

    if (controls.early_exit) {
      // Mass on absorbing states grows monotonically, so freezing the
      // distribution under-counts each result entry by at most the live
      // mass that could still be absorbed, weighted by the Poisson tail.
      double live_mass = 0.0;
      for (state_index s : live) live_mass += current[s];
      if (tail * live_mass < cutoff) {
        for (state_index s : reached) result[s] += tail * current[s];
        stats.early_terminated = true;
        stats.steps_taken = k;
        if (obs::enabled()) {
          static obs::counter& c = obs::metrics_registry::global().get_counter(
              "transient.early_terminated");
          c.add(1);
        }
        return result;
      }
    }

    // One SpMV step, restricted to the live frontier. `next` is all-zero
    // outside `reached` by the sweep at the bottom of the loop, so newly
    // touched targets accumulate from a clean slot.
    stats.peak_frontier = std::max(stats.peak_frontier, live.size());
    for (state_index s : live) next[s] = current[s] * dtmc.diagonal[s];
    for (state_index s : reached) {
      if (dtmc.absorbing_row(s)) next[s] = current[s];
    }
    const std::size_t live_before = live.size();
    for (std::size_t i = 0; i < live_before; ++i) {
      const state_index s = live[i];
      const double mass = current[s];
      if (mass == 0.0) continue;
      for (std::size_t e = dtmc.row_start[s]; e < dtmc.row_start[s + 1];
           ++e) {
        touch(dtmc.col[e]);
        next[dtmc.col[e]] += mass * dtmc.value[e];
      }
    }

    if (controls.early_exit) {
      // P is stochastic, so iteration contracts in L1: once one step
      // moves the iterate by delta, m further steps move it by at most
      // m * delta. Freeze when the whole remaining run stays under the
      // cutoff.
      double delta = 0.0;
      for (state_index s : reached) delta += std::abs(next[s] - current[s]);
      const double remaining = static_cast<double>(window.right - k - 1);
      if (delta * remaining < cutoff) {
        for (state_index s : reached) result[s] += tail * next[s];
        stats.steady_state = true;
        stats.steps_taken = k + 1;
        if (obs::enabled()) {
          static obs::counter& c = obs::metrics_registry::global().get_counter(
              "transient.steady_state_detected");
          c.add(1);
        }
        return result;
      }
    }

    current.swap(next);
    for (state_index s : reached) next[s] = 0.0;
  }
  return result;
}

/// The ctmc entry points: validate once, build the uniformised form with
/// `absorbing` rows, then run the shared loop.
std::vector<double> transient_from_chain(const ctmc& chain,
                                         const std::vector<char>& absorbing,
                                         double t, double epsilon,
                                         const transient_controls& controls) {
  require_horizon(t);
  chain.validate();
  return transient_impl(uniformised_dtmc(chain, absorbing),
                        chain.initial_distribution(), t, epsilon, controls);
}

double target_mass(const std::vector<double>& dist,
                   const std::vector<char>& target) {
  double p = 0.0;
  for (std::size_t s = 0; s < dist.size(); ++s) {
    if (target[s]) p += dist[s];
  }
  return p;
}

}  // namespace

std::vector<double> transient_distribution(const ctmc& chain, double t,
                                           double epsilon,
                                           const transient_controls& controls) {
  const std::vector<char> none(chain.num_states(), 0);
  return transient_from_chain(chain, none, t, epsilon, controls);
}

double reach_probability(const ctmc& chain, const std::vector<char>& target,
                         double t, double epsilon,
                         const transient_controls& controls) {
  require_model(target.size() == chain.num_states(),
                "reach_probability: target flag vector has wrong size");
  return target_mass(transient_from_chain(chain, target, t, epsilon, controls),
                     target);
}

double reach_probability(const uniformised_dtmc& dtmc,
                         const std::vector<double>& initial,
                         const std::vector<char>& target, double t,
                         double epsilon, const transient_controls& controls) {
  require_model(target.size() == dtmc.n,
                "reach_probability: target flag vector has wrong size");
  return target_mass(transient_impl(dtmc, initial, t, epsilon, controls),
                     target);
}

double reach_failed_probability(const ctmc& chain, double t, double epsilon,
                                const transient_controls& controls) {
  return reach_probability(chain, chain.failed_flags(), t, epsilon, controls);
}

}  // namespace sdft
