#include "sim/mc.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sim/stream_rng.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"

namespace sdft::sim {

namespace {

constexpr double kZ95 = 1.959963984540054;

/// Fills a normal 95% CI from a sample mean and the standard error of the
/// mean, clamped to [0, 1] (probabilities).
void fill_interval(mc_result& out, double mean, double se) {
  out.estimate = mean;
  out.std_error = se;
  out.ci_half_width = kZ95 * se;
  out.ci_low = std::max(0.0, mean - out.ci_half_width);
  out.ci_high = std::min(1.0, mean + out.ci_half_width);
  out.relative_error = mean > 0.0 ? out.ci_half_width / mean : 0.0;
}

/// Biased static-event probabilities for failure forcing. Two biasing
/// terms, both clamped to [p_e, max(max_bias, p_e)] — never biased down,
/// so the clamp makes forcing exactly crude when the model is not rare:
///   - proportional: p_e * forcing_mass / sum_p targets ~forcing_mass
///     forced failures per trajectory while preserving the events'
///     relative likelihoods (low weight variance on dominant cutsets);
///   - balanced floor: forcing_mass / n gives every rare event a uniform
///     minimum chance, so cutsets of very small probabilities stay
///     reachable (proportional boosting alone never lifts a 1e-7 event
///     into sampling range on a wide model).
/// Returns false when no event ends up biased (caller falls back to the
/// unbiased path).
bool forcing_bias(const sd_fault_tree& tree, const mc_options& options,
                  std::vector<double>& bias) {
  const fault_tree& ft = tree.structure();
  double sum_p = 0.0;
  std::size_t num_static = 0;
  for (node_index b : ft.basic_events()) {
    if (!tree.is_static(b)) continue;
    sum_p += ft.node(b).probability;
    ++num_static;
  }
  if (sum_p <= 0.0) return false;
  const double boost = options.forcing_mass / sum_p;
  const double floor =
      options.forcing_mass / static_cast<double>(num_static);
  bias.assign(ft.size(), 0.0);
  bool any = false;
  for (node_index b : ft.basic_events()) {
    if (!tree.is_static(b)) continue;
    const double p = ft.node(b).probability;
    const double q = std::min(std::max({p * boost, floor, p}),
                              std::max(options.max_bias, p));
    bias[b] = q;
    if (q != p) any = true;
  }
  return any;
}

/// Crude / forcing: one weighted Bernoulli sample per trajectory, batched
/// over the pool. Per-batch partial sums are reduced in batch order so the
/// result is independent of scheduling.
mc_result run_weighted(const trajectory_model& model, double horizon,
                       const mc_options& options,
                       const std::vector<double>* bias, thread_pool* pool) {
  const trajectory_model::static_law law = model.make_static_law(bias);
  const std::size_t n = options.trajectories;
  const std::size_t batch = std::max<std::size_t>(1, options.batch);
  const std::size_t num_batches = (n + batch - 1) / batch;

  struct partial {
    double sum_y = 0.0;
    double sum_y2 = 0.0;
    std::size_t failures = 0;
  };
  std::vector<partial> partials(num_batches);

  parallel_for(pool, num_batches, [&](std::size_t b) {
    const std::size_t begin = b * batch;
    const std::size_t end = std::min(n, begin + batch);
    partial acc;
    trajectory_state s;
    for (std::size_t i = begin; i < end; ++i) {
      rng random = substream(options.seed, options.first_trajectory + i);
      bool failed = model.init(s, random, &law);
      if (!failed) {
        failed = model.advance(s, horizon, random) == advance_outcome::failed;
      }
      if (failed) {
        const double y = s.weight;
        acc.sum_y += y;
        acc.sum_y2 += y * y;
        ++acc.failures;
      }
    }
    partials[b] = acc;
  });

  double sum_y = 0.0;
  double sum_y2 = 0.0;
  std::size_t failures = 0;
  for (const partial& p : partials) {
    sum_y += p.sum_y;
    sum_y2 += p.sum_y2;
    failures += p.failures;
  }

  mc_result out;
  out.method = bias != nullptr ? mc_method::forcing : options.method;
  out.trajectories = n;
  out.failures = failures;
  const double dn = static_cast<double>(n);
  const double mean = sum_y / dn;
  double var = 0.0;
  if (n > 1) {
    var = std::max(0.0, (sum_y2 - dn * mean * mean) /
                            (dn - 1.0));  // unbiased sample variance
  }
  fill_interval(out, mean, std::sqrt(var / dn));
  return out;
}

/// The entrance states of one splitting stage, stored flat: row i is the
/// i-th crossing, with its time, importance, chain-local states, node
/// flags and failed-input counters in contiguous arrays. clear() keeps the
/// capacity, so a replication allocates only while its pools still grow.
/// Rows carry no weight: splitting runs under the nominal law, where every
/// weight is 1.
class entrance_pool {
 public:
  explicit entrance_pool(const trajectory_model& model)
      : width_(model.num_components()),
        nodes_(model.tree().structure().size()) {}

  std::size_t size() const { return now_.size(); }

  void clear() {
    now_.clear();
    phi_.clear();
    locals_.clear();
    node_failed_.clear();
    failed_inputs_.clear();
  }

  void push(const trajectory_state& s, double phi) {
    now_.push_back(s.now);
    phi_.push_back(phi);
    locals_.insert(locals_.end(), s.locals.begin(), s.locals.end());
    node_failed_.insert(node_failed_.end(), s.node_failed.begin(),
                        s.node_failed.end());
    failed_inputs_.insert(failed_inputs_.end(), s.failed_inputs.begin(),
                          s.failed_inputs.end());
  }

  /// Copies row `row` into `s` (whose buffers init() has sized) and
  /// returns its importance.
  double load(std::size_t row, trajectory_state& s) const {
    s.now = now_[row];
    std::copy_n(locals_.data() + row * width_, width_, s.locals.data());
    std::copy_n(node_failed_.data() + row * nodes_, nodes_,
                s.node_failed.data());
    std::copy_n(failed_inputs_.data() + row * nodes_, nodes_,
                s.failed_inputs.data());
    return phi_[row];
  }

 private:
  std::size_t width_;
  std::size_t nodes_;
  std::vector<double> now_;
  std::vector<double> phi_;
  std::vector<state_index> locals_;
  std::vector<char> node_failed_;
  std::vector<std::uint32_t> failed_inputs_;
};

/// Fixed-effort RESTART: per replication, stage k launches `effort`
/// trials from entrance states of level k (stage 0 from the initial
/// distribution), counts crossings of level k+1, and multiplies the
/// stage fractions into Z_r = prod p_hat_k. The replication means form
/// the confidence interval. Unbiased: E[Z_r] telescopes to the target
/// probability because each trial resamples its entrance state uniformly
/// with replacement from the previous stage's crossings.
mc_result run_splitting(const trajectory_model& model, double horizon,
                        const mc_options& options, thread_pool* pool) {
  const std::size_t reps = std::max<std::size_t>(2, options.replications);
  std::size_t levels = options.levels;
  if (levels == 0) {
    levels = std::clamp<std::size_t>(model.depth(), 2, 8);
  }
  levels = std::max<std::size_t>(1, levels);
  const std::size_t effort =
      std::max<std::size_t>(1, options.trajectories / (reps * levels));

  struct rep_result {
    double z = 0.0;
    std::size_t final_hits = 0;
  };
  std::vector<rep_result> reps_out(reps);

  parallel_for(pool, reps, [&](std::size_t r) {
    entrance_pool current(model);
    entrance_pool next(model);
    trajectory_state s;
    double z = 1.0;
    std::size_t final_hits = 0;

    for (std::size_t stage = 0; stage < levels; ++stage) {
      const double threshold =
          static_cast<double>(stage + 1) / static_cast<double>(levels);
      next.clear();
      std::size_t hits = 0;
      for (std::size_t slot = 0; slot < effort; ++slot) {
        rng random = substream(options.seed, r, stage, slot);
        double phi;
        if (stage == 0) {
          model.init(s, random);
          phi = model.importance(s);
        } else {
          // Uniform-with-replacement entrance resampling; the pick is the
          // slot stream's first draw, so it is scheduling-independent.
          phi = current.load(
              random.below(static_cast<std::uint64_t>(current.size())), s);
        }
        if (phi < threshold) {
          const advance_outcome outcome =
              model.advance(s, horizon, random, threshold);
          if (outcome == advance_outcome::survived) continue;
          phi = outcome == advance_outcome::failed ? 1.0
                                                   : model.importance(s);
        }
        ++hits;
        next.push(s, phi);
      }
      z *= static_cast<double>(hits) / static_cast<double>(effort);
      if (stage + 1 == levels) final_hits = hits;
      if (hits == 0) {
        z = 0.0;
        break;
      }
      std::swap(current, next);
    }
    reps_out[r] = rep_result{z, final_hits};
  });

  double sum_z = 0.0;
  std::size_t failures = 0;
  for (const rep_result& rr : reps_out) {
    sum_z += rr.z;
    failures += rr.final_hits;
  }
  const double mean = sum_z / static_cast<double>(reps);
  double ss = 0.0;
  for (const rep_result& rr : reps_out) {
    ss += (rr.z - mean) * (rr.z - mean);
  }
  const double var = ss / static_cast<double>(reps - 1);

  mc_result out;
  out.method = mc_method::splitting;
  out.trajectories = reps * levels * effort;
  out.failures = failures;
  out.levels_used = levels;
  out.replications = reps;
  fill_interval(out, mean, std::sqrt(var / static_cast<double>(reps)));
  return out;
}

}  // namespace

std::string to_string(mc_method method) {
  switch (method) {
    case mc_method::crude:
      return "crude";
    case mc_method::forcing:
      return "forcing";
    case mc_method::splitting:
      return "splitting";
  }
  return "unknown";
}

bool parse_mc_method(std::string_view text, mc_method& out) {
  if (text == "crude") {
    out = mc_method::crude;
  } else if (text == "forcing") {
    out = mc_method::forcing;
  } else if (text == "splitting") {
    out = mc_method::splitting;
  } else {
    return false;
  }
  return true;
}

mc_result estimate_failure_probability_mc(const sd_fault_tree& tree,
                                          double horizon,
                                          const mc_options& options,
                                          thread_pool* pool) {
  require_model(options.trajectories > 0,
                "mc: need at least one trajectory");
  require_model(std::isfinite(horizon) && horizon >= 0.0,
                "mc: horizon must be finite and >= 0");
  tree.validate();
  trajectory_model model(tree, options.max_update_sweeps);

  if (options.method == mc_method::splitting) {
    return run_splitting(model, horizon, options, pool);
  }
  std::vector<double> bias;
  const bool biased = options.method == mc_method::forcing &&
                      forcing_bias(tree, options, bias);
  mc_result out = run_weighted(model, horizon, options,
                               biased ? &bias : nullptr, pool);
  out.method = options.method;
  return out;
}

}  // namespace sdft::sim
