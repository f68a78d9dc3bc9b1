// mc_rare: the two rare-event cases of bench_mc at a fixed trajectory
// budget through the engine's mc backend (`sdft analyze --backend mc`):
// failure forcing on the rare static industrial variant (top probability
// ~9e-10, reference: the exact-static BDD probability) and importance
// splitting on four redundant repairable pumps (~6e-9 at 100 h, reference:
// the product CTMC). One operation runs both campaigns on every online
// CPU. Every operation uses the campaign seed derived from the workload
// seed, so each must repeat the first one's estimates exactly. This is
// the only workload that runs sim.
//
// Splitting uses four levels, as bench_mc does: the levels the engine
// derives from this tree's depth (two) leave most campaigns at this
// budget with no final-level crossing at all, and an empty campaign has
// no interval to check.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ctmc/ctmc.hpp"
#include "engine/engine.hpp"
#include "gen/industrial.hpp"
#include "product/product_ctmc.hpp"
#include "sim/mc.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace sdft;

constexpr std::size_t forcing_budget = 1'000'000;
constexpr std::size_t splitting_budget = 1'000'000;
constexpr std::size_t tiny_budget = 200'000;
constexpr std::size_t splitting_levels = 4;
/// A result passes when the reference lies within this many standard
/// errors of the estimate. The 95 % interval (1.96) misses by design on
/// one campaign in twenty; four standard errors miss about once in 16,000.
constexpr double check_sigmas = 4.0;

sd_fault_tree industrial_rare_variant() {
  industrial_options g;
  g.seed = 17;
  g.num_frontline_systems = 6;
  g.num_support_systems = 2;
  g.num_initiating_events = 4;
  g.sequences_per_ie = 3;
  g.components_per_train = 3;
  g.fts_min = 1e-7;
  g.fts_max = 1e-4;
  g.fio_rate_min = 1.25e-7 / 30;
  g.fio_rate_max = 1.25e-4 / 30;
  return sd_fault_tree(generate_industrial(g).ft);
}

sd_fault_tree redundant_group() {
  sd_fault_tree tree;
  std::vector<node_index> pumps;
  for (int i = 0; i < 4; ++i) {
    pumps.push_back(tree.add_dynamic_event("pump" + std::to_string(i),
                                           make_repairable(0.002, 1.0)));
  }
  tree.set_top(tree.add_gate("top", gate_type::and_gate, pumps));
  tree.validate();
  return tree;
}

struct mc_case {
  const char* name;
  sd_fault_tree tree;
  double horizon;
  sim::mc_method method;
  double exact;
};

struct cases {
  mc_case forcing;
  mc_case splitting;
};

cases make_cases() {
  cases c{{"forcing", industrial_rare_variant(), 24.0, sim::mc_method::forcing,
           0.0},
          {"splitting", redundant_group(), 100.0, sim::mc_method::splitting,
           0.0}};
  analysis_options exact_opts;
  exact_opts.horizon = c.forcing.horizon;
  exact_opts.exact_static = true;
  exact_opts.cutoff = 1e-30;
  exact_opts.publish_metrics = false;
  c.forcing.exact = analyze(c.forcing.tree, exact_opts).exact_static_probability;
  c.splitting.exact =
      exact_failure_probability(c.splitting.tree, c.splitting.horizon);
  return c;
}

sim::mc_options campaign_options(const mc_case& c, std::size_t budget,
                                 std::uint64_t seed) {
  sim::mc_options o;
  o.method = c.method;
  o.trajectories = budget;
  o.seed = seed;
  if (c.method == sim::mc_method::splitting) o.levels = splitting_levels;
  return o;
}

/// One campaign through the engine's mc backend.
sim::mc_result engine_campaign(const mc_case& c, std::size_t budget,
                               std::uint64_t seed, std::size_t threads) {
  analysis_options o;
  o.horizon = c.horizon;
  o.backend = cutset_backend::mc;
  o.threads = threads;
  o.mc = campaign_options(c, budget, seed);
  return analysis_engine(o).run(c.tree).mc;
}

bool brackets(const sim::mc_result& r, double exact) {
  return r.failures > 0 &&
         std::fabs(r.estimate - exact) <= check_sigmas * r.std_error;
}

bool same(const sim::mc_result& a, const sim::mc_result& b) {
  return a.estimate == b.estimate && a.std_error == b.std_error &&
         a.failures == b.failures && a.trajectories == b.trajectories;
}

/// Time to 10 % relative error: campaign seconds x (rel_err / 0.1)^2.
double time_to_accuracy(double seconds, double rel_err) {
  return seconds * (rel_err / 0.1) * (rel_err / 0.1);
}

}  // namespace

void run_mc_rare(const run_config& cfg, run_result& out, layer_map& layers) {
  double setup_s = 0;
  const cases mc = timed_setup(make_cases, setup_s);
  const std::size_t f_budget = cfg.tiny ? tiny_budget : forcing_budget;
  const std::size_t s_budget = cfg.tiny ? tiny_budget : splitting_budget;
  std::fprintf(stderr,
               "mc_rare: exact %.6e (forcing case), %.6e (splitting case), "
               "set-up %.3fs\n",
               mc.forcing.exact, mc.splitting.exact, setup_s);

  // Every operation must land within check_sigmas of the references and
  // repeat the first operation's estimates exactly.
  const std::uint64_t seed = mix_seed(cfg.seed, 0);
  std::optional<std::pair<sim::mc_result, sim::mc_result>> first;
  const auto check = [&](const sim::mc_result& f, const sim::mc_result& s) {
    if (!first) first.emplace(f, s);
    out.op(brackets(f, mc.forcing.exact) && brackets(s, mc.splitting.exact) &&
               same(f, first->first) && same(s, first->second),
           "mc_rare: estimates " + std::to_string(f.estimate) + " / " +
               std::to_string(s.estimate) +
               " outside the reference interval or not repeated at the seed");
  };

  std::vector<double> untraced;
  const auto untraced_op = [&] {
    const double t0 = now_s();
    const sim::mc_result f =
        engine_campaign(mc.forcing, f_budget, seed, cfg.threads);
    const sim::mc_result s =
        engine_campaign(mc.splitting, s_budget, seed, cfg.threads);
    untraced.push_back(now_s() - t0);
    check(f, s);
  };

  const double window_start = now_s();
  if (!cfg.trace) {
    while (untraced.empty() || now_s() - window_start < cfg.seconds) {
      untraced_op();
    }
    emit_end_to_end(out, setup_s, untraced, now_s() - window_start);
    return;
  }

  // Traced run: alternate engine operations with direct calls of
  // sim::estimate_failure_probability_mc on a pool of the same size.
  tracer tr;
  std::vector<double> traced;
  std::vector<double> campaign_s;
  std::vector<double> f_tta;
  std::vector<double> s_tta;
  std::vector<double> f_rel;
  std::vector<double> s_rel;
  double trajectories = 0;
  double campaign_total = 0;
  sim::mc_result last_f;
  sim::mc_result last_s;
  while (traced.empty() || now_s() - window_start < cfg.seconds) {
    untraced_op();
    const double t0 = now_s();
    scoped_span op(&tr, "mc_rare.op");
    std::optional<thread_pool> pool(std::in_place, cfg.threads);
    const auto campaign = [&](const mc_case& c, std::size_t budget) {
      scoped_span s(&tr, std::string("mc.") + c.name, op.id());
      const double start = now_s();
      const sim::mc_result r = sim::estimate_failure_probability_mc(
          c.tree, c.horizon, campaign_options(c, budget, seed), &*pool);
      return std::make_pair(r, now_s() - start);
    };
    const auto [f, f_s] = campaign(mc.forcing, f_budget);
    const auto [s, s_s] = campaign(mc.splitting, s_budget);
    pool.reset();
    traced.push_back(now_s() - t0);
    check(f, s);
    campaign_s.push_back(f_s + s_s);
    campaign_total += f_s + s_s;
    trajectories += static_cast<double>(f.trajectories + s.trajectories);
    f_rel.push_back(f.relative_error);
    s_rel.push_back(s.relative_error);
    f_tta.push_back(time_to_accuracy(f_s, f.relative_error));
    s_tta.push_back(time_to_accuracy(s_s, s.relative_error));
    last_f = f;
    last_s = s;
  }
  layers["mc.campaign_s"] = median(campaign_s);
  layers["mc.trajectories_per_s"] =
      campaign_total > 0.0 ? trajectories / campaign_total : 0.0;
  layers["mc.forcing_rel_err"] = median(f_rel);
  layers["mc.splitting_rel_err"] = median(s_rel);
  layers["mc.forcing_failures"] = static_cast<double>(last_f.failures);
  layers["mc.splitting_failures"] = static_cast<double>(last_s.failures);
  layers["mc.levels"] = static_cast<double>(last_s.levels_used);
  layers["mc.forcing_tta_s"] = median(f_tta);
  layers["mc.splitting_tta_s"] = median(s_tta);
  layers["trace.overhead_ms"] = (median(traced) - median(untraced)) * 1e3;
  layers["trace.layer_share"] = tr.layer_share();
  if (!cfg.trace_path.empty() && !tr.write_chrome_json(cfg.trace_path)) {
    std::fprintf(stderr, "mc_rare: cannot write %s\n", cfg.trace_path.c_str());
  }
}

}  // namespace perfbench
