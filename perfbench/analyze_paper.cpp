// analyze_paper: cold one-shot analyses of the full-size synthetic
// industrial model 1, annotated as in the paper's §VI-B (30 % dynamic,
// 10 % triggered, repair 0.01/h, one phase), at t = 24 h and cutoff 1e-15,
// a fresh engine per operation on every online CPU. Cutset generation and
// prep dominate here; quantification is a small share.
//
// The workload seed jitters every static probability by a log-uniform
// factor within ±2 % after the dynamic annotation, so each seed is a
// distinct input of the same shape and size (the generator seed itself
// stays that of model 1: other generator seeds change the cutset count
// several-fold).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/cutset_source.hpp"
#include "engine/engine.hpp"
#include "engine/modular.hpp"
#include "engine/quantifier.hpp"
#include "gen/industrial.hpp"
#include "mcs/importance.hpp"
#include "prep/prep.hpp"
#include "sdft/translate.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace sdft;

constexpr double horizon = 24.0;
constexpr double cutoff = 1e-15;

analysis_options paper_options(std::size_t threads) {
  analysis_options o;
  o.horizon = horizon;
  o.cutoff = cutoff;
  o.threads = threads;
  return o;
}

}  // namespace

industrial_options model1_options(bool full) {
  industrial_options o;
  o.seed = 1;
  if (full) {
    o.num_frontline_systems = 60;
    o.num_support_systems = 12;
    o.num_initiating_events = 30;
    o.sequences_per_ie = 10;
    o.components_per_train = 8;
    o.transfer_depth = 6;
    o.fts_min = 3e-7;
    o.fts_max = 1e-3;
    o.fio_rate_min = 1.25e-8;
    o.fio_rate_max = 4e-5;
  } else {
    o.num_frontline_systems = 18;
    o.num_support_systems = 5;
    o.num_initiating_events = 10;
    o.sequences_per_ie = 6;
    o.components_per_train = 5;
  }
  return o;
}

std::vector<node_index> fv_ranking(const industrial_model& model,
                                   std::size_t threads) {
  analysis_options static_opts = paper_options(threads);
  static_opts.publish_metrics = false;
  const analysis_result static_run =
      analysis_engine(static_opts).run(sd_fault_tree(model.ft));
  std::vector<cutset> cutsets;
  cutsets.reserve(static_run.cutsets.size());
  for (const cutset_result& c : static_run.cutsets) cutsets.push_back(c.events);
  return rank_by_fussell_vesely(model.ft, cutsets);
}

namespace {

/// The annotated, seed-jittered study: generation, Fussell-Vesely ranking
/// and §VI-B annotation.
sd_fault_tree make_study(const run_config& cfg) {
  const industrial_model model = generate_industrial(model1_options(!cfg.tiny));
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  an.phases = 1;
  sd_fault_tree tree =
      annotate_dynamic(model, fv_ranking(model, cfg.threads), an);
  rng jitter(mix_seed(cfg.seed, 0));
  for (node_index e : tree.static_events()) {
    const double p = tree.structure().node(e).probability;
    tree.structure().set_probability(
        e, std::min(1.0, p * std::exp(jitter.uniform(-0.02, 0.02))));
  }
  return tree;
}

/// Layer readings of one staged replica.
struct replica_run {
  double probability = 0;
  std::size_t cutsets = 0;
  double wall_s = 0;
  layer_map layers;
};

/// analysis_engine::run() stage by stage through the layers' public
/// functions: translate_to_static → preprocess → generate_modular →
/// quantifiers → rare-event sum, on one pool of `threads` workers. Must
/// reproduce run()'s probability bit for bit.
replica_run staged_replica(const sd_fault_tree& tree, std::size_t threads,
                           tracer* tr) {
  replica_run out;
  const double t0 = now_s();
  scoped_span op(tr, "analyze_paper.replica");
  std::optional<thread_pool> pool(std::in_place, threads);
  const pool_counters pool_before = pool->counters();

  const static_translation translation = [&] {
    scoped_span s(tr, "sdft.translate", op.id());
    return translate_to_static(tree, horizon);
  }();

  if (tr != nullptr) reset_peak_rss();
  const prep_result prep = [&] {
    scoped_span s(tr, "prep", op.id());
    return preprocess(translation.ft_bar);
  }();
  out.layers["prep.peak_rss_mb"] = peak_rss_mb();
  out.layers["prep.nodes_after"] = static_cast<double>(prep.stats.nodes_after);
  out.layers["prep.modules"] = static_cast<double>(prep.stats.modules_found);

  if (tr != nullptr) reset_peak_rss();
  modular_generation generated = [&] {
    scoped_span s(tr, "mcs", op.id());
    const std::unique_ptr<cutset_source> source =
        make_cutset_source(cutset_backend::mocus);
    return generate_modular(prep, translation, *source, cutoff, &*pool);
  }();
  out.layers["mcs.peak_rss_mb"] = peak_rss_mb();
  const cutset_generation& gen = generated.generation;
  out.layers["mcs.partials"] = static_cast<double>(gen.partials_processed);
  out.layers["mcs.cutsets"] = static_cast<double>(gen.cutsets.size());
  out.layers["mcs.subset_tests"] = static_cast<double>(gen.subset_tests);
  out.layers["mcs.yield"] =
      gen.partials_processed > 0
          ? static_cast<double>(gen.cutsets.size()) /
                static_cast<double>(gen.partials_processed)
          : 0.0;

  if (tr != nullptr) reset_peak_rss();
  std::vector<cutset_result> quantified(gen.cutsets.size());
  std::vector<double> busy(pool->size() + 1, 0.0);
  {
    scoped_span s(tr, "quant", op.id());
    quantify_options qopts;
    qopts.horizon = horizon;
    quantification_cache cache;
    const static_product_quantifier static_q(tree);
    const product_chain_quantifier chain_q(tree, translation, qopts, &cache);
    parallel_for(*pool, gen.cutsets.size(), [&](std::size_t i) {
      const clock::time_point start = clock::now();
      cutset c = std::move(generated.generation.cutsets[i]);
      const quantifier& q = static_q.handles(c)
                                ? static_cast<const quantifier&>(static_q)
                                : chain_q;
      quantified[i] = q.quantify(std::move(c));
      const std::size_t w = pool->worker_index();
      busy[w == thread_pool::npos ? pool->size() : w] +=
          seconds_between(start, clock::now());
    });
  }
  out.layers["quant.peak_rss_mb"] = peak_rss_mb();
  std::size_t chain_calls = 0;
  std::size_t chain_hits = 0;
  double chain_states = 0;
  for (const cutset_result& q : quantified) {
    if (!q.dynamic) continue;
    ++chain_calls;
    chain_hits += q.cache_hit ? 1 : 0;
    chain_states += static_cast<double>(q.chain_states);
  }
  double busy_total = 0;
  for (double b : busy) busy_total += b;
  out.layers["quant.busy_s"] = busy_total;
  out.layers["quant.chain_calls"] = static_cast<double>(chain_calls);
  out.layers["quant.chain_states_mean"] =
      chain_calls > 0 ? chain_states / static_cast<double>(chain_calls) : 0.0;
  out.layers["quant.cache_hit_ratio"] =
      chain_calls > 0 ? static_cast<double>(chain_hits) /
                            static_cast<double>(chain_calls)
                      : 0.0;

  {
    scoped_span s(tr, "engine.sum", op.id());
    for (const cutset_result& q : quantified) {
      if (q.probability <= cutoff) continue;
      out.probability += q.probability;
    }
  }
  out.cutsets = quantified.size();
  out.layers["thread_pool.occupancy"] =
      pool->counters().occupancy_since(pool_before);
  pool.reset();
  out.wall_s = now_s() - t0;
  return out;
}

}  // namespace

void run_analyze_paper(const run_config& cfg, run_result& out,
                       layer_map& layers) {
  double setup_s = 0;
  const sd_fault_tree tree = timed_setup([&] { return make_study(cfg); }, setup_s);
  const analysis_options options = paper_options(cfg.threads);

  // The set-up reference (also the warm-up run).
  const analysis_result reference = analysis_engine(options).run(tree);
  std::fprintf(stderr,
               "analyze_paper: p = %.17g, %zu cutsets (%zu dynamic), set-up "
               "%.3fs\n",
               reference.failure_probability, reference.num_cutsets,
               reference.num_dynamic_cutsets, setup_s);

  const auto cold_run = [&](std::vector<double>& times) {
    const double t0 = now_s();
    const analysis_result r = analysis_engine(options).run(tree);
    times.push_back(now_s() - t0);
    out.op(r.failure_probability == reference.failure_probability &&
               r.num_cutsets == reference.num_cutsets,
           "analyze_paper: run() differs from the set-up reference");
  };

  std::vector<double> untraced;
  const double window_start = now_s();
  if (!cfg.trace) {
    while (untraced.empty() || now_s() - window_start < cfg.seconds) {
      cold_run(untraced);
    }
    emit_end_to_end(out, setup_s, untraced, now_s() - window_start);
    return;
  }

  // Traced run: alternate untraced run() calls with traced staged
  // replicas, then time one single-thread replica for the pool speedup.
  tracer tr;
  std::vector<replica_run> replicas;
  while (replicas.empty() || now_s() - window_start < cfg.seconds) {
    cold_run(untraced);
    replicas.push_back(staged_replica(tree, cfg.threads, &tr));
    out.op(replicas.back().probability == reference.failure_probability &&
               replicas.back().cutsets == reference.num_cutsets,
           "analyze_paper: staged replica differs from run()");
  }
  const replica_run serial = staged_replica(tree, 1, nullptr);
  out.op(serial.probability == reference.failure_probability,
         "analyze_paper: single-thread replica differs from run()");

  // Counters of the last replica (they repeat up to scheduling), medians
  // of the timings.
  layers = replicas.back().layers;
  std::vector<double> walls;
  std::vector<double> busy;
  std::vector<double> occupancy;
  for (const replica_run& r : replicas) {
    walls.push_back(r.wall_s);
    busy.push_back(r.layers.at("quant.busy_s"));
    occupancy.push_back(r.layers.at("thread_pool.occupancy"));
  }
  layers["quant.busy_s"] = median(busy);
  layers["thread_pool.occupancy"] = median(occupancy);
  const auto self = tr.self_times();
  layers["sdft.translate_s"] = median(self.at("sdft.translate"));
  layers["prep.s"] = median(self.at("prep"));
  layers["mcs.generate_s"] = median(self.at("mcs"));
  layers["engine.sum_s"] = median(self.at("engine.sum"));
  layers["thread_pool.speedup"] = serial.wall_s / median(walls);
  layers["trace.overhead_ms"] = (median(walls) - median(untraced)) * 1e3;
  layers["trace.layer_share"] = tr.layer_share();
  if (!cfg.trace_path.empty() && !tr.write_chrome_json(cfg.trace_path)) {
    std::fprintf(stderr, "analyze_paper: cannot write %s\n",
                 cfg.trace_path.c_str());
  }
}

}  // namespace perfbench
