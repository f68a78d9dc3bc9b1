// etree_uq: a scenario_engine over the industrial-family event tree of
// bench_etree (bench-size model 1, IE0 followed by nine front-line system
// functional events, all 512 success/failure sequences), with beta-factor
// CCF groups over the redundant trains of each system and lognormal
// uncertainty on the CCF group members and the initiating event. One
// operation compiles the scenario (CCF expansion, shared multi-root BDD)
// and runs it with the cutset column and parameter-uncertainty sampling
// on every online CPU. This is the only workload that reaches etree, the
// multi-root BDD, ft/ccf and the UQ layer.
//
// UQ sample count: one sample re-evaluates all 514 sequence and end-state
// roots on the ~650k-node BDD (about 25 ms on four cores), so the 1000
// samples of `sdft etree` examples would make one operation take ~25 s;
// 32 samples keep it near 2 s with UQ still its largest part. The workload
// seed is the UQ seed.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/scenario.hpp"
#include "gen/industrial.hpp"

namespace perfbench {

namespace {

using namespace sdft;

constexpr int functional_events = 9;
constexpr std::size_t uq_samples = 32;
constexpr std::size_t tiny_uq_samples = 4;
/// Relevance cutoff of the cutset column (1e-15 makes the per-sequence
/// recombination alone take ~4 s).
constexpr double cutoff = 1e-12;
constexpr double ccf_beta = 0.1;
constexpr double error_factor = 3.0;

scenario_model make_scenario(int systems) {
  const industrial_model model = generate_industrial(model1_options(false));
  const fault_tree& ft = model.ft;

  scenario_description sc;
  sc.name = "PERFBENCH";
  sc.initiating_event = "IE0";
  for (int k = 0; k < systems; ++k) {
    sc.functional.push_back(
        {"F" + std::to_string(k), "SYS" + std::to_string(k) + "_F"});
  }
  for (std::size_t mask = 0; mask < (std::size_t{1} << systems); ++mask) {
    scenario_description::sequence s;
    int failures = 0;
    for (int k = 0; k < systems; ++k) {
      const bool failed = (mask >> k) & 1u;
      failures += failed ? 1 : 0;
      s.outcomes.push_back(failed ? branch_outcome::failure
                                  : branch_outcome::success);
    }
    s.end_state = failures >= 2 ? "CD" : "OK";
    sc.sequences.push_back(std::move(s));
  }
  // One CCF group per system over the first component's demand failures
  // of all its trains (symmetric trains share that probability).
  for (int k = 0; k < systems; ++k) {
    ccf_group_description g;
    g.name = "CCF_SYS" + std::to_string(k);
    g.beta = ccf_beta;
    for (int train = 0; train < 3; ++train) {
      const std::string member = "SYS" + std::to_string(k) + "_T" +
                                 std::to_string(train) + "_C0_FTS";
      if (ft.find(member) != fault_tree::npos) g.members.push_back(member);
    }
    if (g.members.size() < 2) continue;
    for (const std::string& m : g.members) {
      parameter_distribution d;
      d.event = m;
      d.model = parameter_distribution::kind::lognormal;
      d.error_factor = error_factor;
      sc.distributions.push_back(d);
    }
    sc.ccf.push_back(std::move(g));
  }
  parameter_distribution ie;
  ie.event = "IE0";
  ie.model = parameter_distribution::kind::lognormal;
  ie.error_factor = error_factor;
  sc.distributions.push_back(ie);
  return {sd_fault_tree(ft), sc};
}

scenario_options engine_options(std::size_t threads) {
  scenario_options o;
  o.analysis.cutoff = cutoff;
  o.analysis.threads = threads;
  o.quantify_cutsets = true;
  return o;
}

/// The columns every operation must reproduce exactly.
struct scenario_columns {
  std::vector<double> probability;
  std::vector<double> mcs_probability;
  std::vector<std::size_t> cutsets;

  explicit scenario_columns(const scenario_result& r) {
    for (const auto& s : r.sequences) {
      probability.push_back(s.probability);
      mcs_probability.push_back(s.mcs_probability);
      cutsets.push_back(s.num_cutsets);
    }
  }
  bool operator==(const scenario_columns&) const = default;
};

std::vector<double> uq_bands(const scenario_result& r) {
  std::vector<double> out;
  for (const auto& s : r.sequences) {
    out.insert(out.end(), {s.uq.mean, s.uq.p05, s.uq.p50, s.uq.p95});
  }
  return out;
}

}  // namespace

void run_etree_uq(const run_config& cfg, run_result& out, layer_map& layers) {
  const int systems = cfg.tiny ? 5 : functional_events;
  const std::size_t samples = cfg.tiny ? tiny_uq_samples : uq_samples;

  // Set-up: the model, plus the single-thread reference run every
  // operation's sequence columns must match bit for bit.
  struct prepared {
    scenario_model model;
    scenario_columns reference;
  };
  double setup_s = 0;
  const prepared setup = timed_setup(
      [&] {
        scenario_model model = make_scenario(systems);
        scenario_options serial = engine_options(1);
        serial.analysis.inline_execution = true;
        serial.analysis.publish_metrics = false;
        scenario_engine engine(model, serial);
        return prepared{std::move(model), scenario_columns(engine.run(0, cfg.seed))};
      },
      setup_s);
  std::fprintf(stderr, "etree_uq: %zu sequences, %zu CCF groups, set-up %.3fs\n",
               setup.reference.probability.size(),
               setup.model.scenario.ccf.size(), setup_s);

  // One operation: compile, then run with the cutset column and UQ. Every
  // operation uses the workload seed, so UQ bands must repeat exactly.
  std::vector<double> first_bands;
  const auto check = [&](const scenario_result& r, bool with_uq) {
    bool ok = scenario_columns(r) == setup.reference;
    if (with_uq) {
      const std::vector<double> bands = uq_bands(r);
      if (first_bands.empty()) first_bands = bands;
      ok = ok && bands == first_bands;
    }
    out.op(ok, "etree_uq: result differs from the single-thread reference "
               "or the first run's UQ bands");
  };
  // Operations are timed up to and including the engine's teardown.
  std::vector<double> untraced;
  const auto untraced_op = [&] {
    const double t0 = now_s();
    std::optional<scenario_result> r;
    {
      scenario_engine engine(setup.model, engine_options(cfg.threads));
      r = engine.run(samples, cfg.seed);
    }
    untraced.push_back(now_s() - t0);
    check(*r, true);
  };

  const double window_start = now_s();
  if (!cfg.trace) {
    while (untraced.empty() || now_s() - window_start < cfg.seconds) {
      untraced_op();
    }
    emit_end_to_end(out, setup_s, untraced, now_s() - window_start);
    return;
  }

  // Traced run: alternate untraced operations with traced ones that time
  // the constructor, run(0, seed) cold, run(0, seed) warm and
  // run(N, seed) separately; uq.s = run(N) - warm run(0).
  tracer tr;
  std::vector<double> traced;
  std::vector<double> compile_s;
  std::vector<double> run_s;
  std::vector<double> uq_s;
  scenario_result last;
  while (traced.empty() || now_s() - window_start < cfg.seconds) {
    untraced_op();
    const double t0 = now_s();
    double warm = 0;
    std::optional<scenario_result> cold;
    {
      scoped_span op(&tr, "etree_uq.op");
      std::optional<scenario_engine> engine;
      double t = now_s();
      {
        scoped_span s(&tr, "scenario.compile", op.id());
        engine.emplace(setup.model, engine_options(cfg.threads));
      }
      compile_s.push_back(now_s() - t);
      t = now_s();
      {
        scoped_span s(&tr, "scenario.run", op.id());
        cold = engine->run(0, cfg.seed);
      }
      run_s.push_back(now_s() - t);
      t = now_s();
      {
        scoped_span s(&tr, "scenario.run_warm", op.id());
        engine->run(0, cfg.seed);
      }
      warm = now_s() - t;
      t = now_s();
      {
        scoped_span s(&tr, "uq", op.id());
        last = engine->run(samples, cfg.seed);
      }
      uq_s.push_back((now_s() - t) - warm);
      scoped_span s(&tr, "scenario.teardown", op.id());
      engine.reset();
    }
    // Comparable with an untraced compile + cold run(N): the traced
    // operation minus its extra warm run(0) and the warm share of its
    // run(N).
    traced.push_back(now_s() - t0 - 2 * warm);
    check(*cold, false);
    check(last, true);
  }
  layers["scenario.compile_s"] = median(compile_s);
  layers["scenario.run_s"] = median(run_s);
  layers["uq.s"] = median(uq_s);
  layers["uq.samples_per_s"] =
      median(uq_s) > 0.0 ? static_cast<double>(samples) / median(uq_s) : 0.0;
  layers["scenario.bdd_nodes"] = static_cast<double>(last.stats.scenario_bdd_nodes);
  layers["scenario.prefix_hits"] =
      static_cast<double>(last.stats.scenario_prefix_hits);
  layers["ccf.events_added"] = static_cast<double>(last.stats.ccf_events_added);
  layers["trace.overhead_ms"] = (median(traced) - median(untraced)) * 1e3;
  layers["trace.layer_share"] = tr.layer_share();
  if (!cfg.trace_path.empty() && !tr.write_chrome_json(cfg.trace_path)) {
    std::fprintf(stderr, "etree_uq: cannot write %s\n", cfg.trace_path.c_str());
  }
}

}  // namespace perfbench
