// E9: google-benchmark micro-kernels for the substrates the pipeline is
// built on: MOCUS vs BDD cutset generation, BDD exact probability,
// uniformised transient analysis, product-chain construction, and the
// per-cutset model build.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bdd/ft_bdd.hpp"
#include "core/mcs_model.hpp"
#include "ctmc/transient.hpp"
#include "ctmc/triggered.hpp"
#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "ft/modules.hpp"
#include "mcs/mocus.hpp"
#include "minimize_reference.hpp"
#include "obs/obs.hpp"
#include "prep/prep.hpp"
#include "product/product_ctmc.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdft;

const fault_tree& bwr_static() {
  static const fault_tree ft = make_bwr_model({}).structure();
  return ft;
}

const sd_fault_tree& bwr_dynamic() {
  static const sd_fault_tree tree = [] {
    bwr_options opts;
    opts.dynamic_events = true;
    opts.repair_rate = 0.01;
    return make_bwr_model(with_bwr_triggers(opts, bwr_num_triggers));
  }();
  return tree;
}

void bm_mocus_bwr(benchmark::State& state) {
  mocus_options opts;
  opts.cutoff = 1e-15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mocus(bwr_static(), opts).cutsets.size());
  }
}
BENCHMARK(bm_mocus_bwr)->Unit(benchmark::kMillisecond);

void bm_bdd_compile_bwr(benchmark::State& state) {
  for (auto _ : state) {
    const ft_bdd compiled(bwr_static());
    benchmark::DoNotOptimize(compiled.node_count());
  }
}
BENCHMARK(bm_bdd_compile_bwr)->Unit(benchmark::kMillisecond);

void bm_bdd_exact_probability(benchmark::State& state) {
  for (auto _ : state) {
    const ft_bdd compiled(bwr_static());
    benchmark::DoNotOptimize(compiled.probability());
  }
}
BENCHMARK(bm_bdd_exact_probability)->Unit(benchmark::kMillisecond);

void bm_bdd_cutsets_bwr(benchmark::State& state) {
  const ft_bdd compiled(bwr_static());
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.minimal_cutsets().size());
  }
}
BENCHMARK(bm_bdd_cutsets_bwr)->Unit(benchmark::kMillisecond);

void bm_transient_erlang(benchmark::State& state) {
  const int phases = static_cast<int>(state.range(0));
  const ctmc chain = make_erlang_active(phases, 1e-3, 1e-2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reach_failed_probability(chain, 24.0));
  }
}
BENCHMARK(bm_transient_erlang)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void bm_product_chain_mcs(benchmark::State& state) {
  // A representative dynamic cutset of the fully dynamic BWR model:
  // both RHR running-failures plus the triggered FEED&BLEED injection.
  const sd_fault_tree& tree = bwr_dynamic();
  const cutset c{tree.structure().find("IE_TRANSIENT"),
                 tree.structure().find("RHR_T1_FIO"),
                 tree.structure().find("RHR_T2_FIO"),
                 tree.structure().find("FB_FIO")};
  for (auto _ : state) {
    const mcs_model model = build_mcs_model(tree, c);
    benchmark::DoNotOptimize(
        build_product_ctmc(model.tree).num_states());
  }
}
BENCHMARK(bm_product_chain_mcs)->Unit(benchmark::kMicrosecond);

void bm_quantify_mcs(benchmark::State& state) {
  const sd_fault_tree& tree = bwr_dynamic();
  const cutset c{tree.structure().find("IE_TRANSIENT"),
                 tree.structure().find("RHR_T1_FIO"),
                 tree.structure().find("RHR_T2_FIO"),
                 tree.structure().find("FB_FIO")};
  const mcs_model model = build_mcs_model(tree, c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantify_mcs_model(model, 24.0));
  }
}
BENCHMARK(bm_quantify_mcs)->Unit(benchmark::kMicrosecond);

// --- Stage-3 fast-path kernels ------------------------------------------
// Product-level A/B rows: the engine always runs the fast paths, the
// baselines are the product_options / transient_controls references.

triggered_ctmc standby_pump(double failure_rate, double repair_rate) {
  triggered_ctmc m;
  m.chain = ctmc(4);
  m.chain.set_initial(0, 1.0);
  m.chain.set_failed(3);
  m.chain.add_rate(2, 3, failure_rate);
  m.chain.add_rate(3, 2, repair_rate);
  m.chain.add_rate(1, 0, repair_rate);
  m.on_state = {0, 0, 1, 1};
  m.to_on = {2, 3, 0, 0};
  m.to_off = {0, 0, 0, 1};
  return m;
}

/// k identical standby trains sharing one trigger gate — the shape the
/// symmetry lumping collapses from 2 * 2^k to 2 * (k + 1) states.
sd_fault_tree standby_trains_tree(std::size_t k) {
  sd_fault_tree tree;
  const node_index primary =
      tree.add_dynamic_event("primary", make_repairable(0.01, 0.05));
  const node_index gp = tree.add_gate("GP", gate_type::or_gate, {primary});
  std::vector<node_index> top_inputs{gp};
  for (std::size_t i = 0; i < k; ++i) {
    const node_index train = tree.add_dynamic_event(
        "train" + std::to_string(i), standby_pump(0.002, 0.05));
    tree.set_trigger(gp, train);
    top_inputs.push_back(train);
  }
  tree.set_top(tree.add_gate("top", gate_type::and_gate, top_inputs));
  tree.validate();
  return tree;
}

void bm_stage3_product_fast(benchmark::State& state) {
  const sd_fault_tree tree =
      standby_trains_tree(static_cast<std::size_t>(state.range(0)));
  const product_options opts;  // lumped + packed (the defaults)
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_product_ctmc(tree, opts).num_states());
  }
}
BENCHMARK(bm_stage3_product_fast)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void bm_stage3_product_baseline(benchmark::State& state) {
  const sd_fault_tree tree =
      standby_trains_tree(static_cast<std::size_t>(state.range(0)));
  product_options opts;
  opts.lump_symmetry = false;
  opts.packed_state_keys = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_product_ctmc(tree, opts).num_states());
  }
}
BENCHMARK(bm_stage3_product_baseline)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void bm_stage3_transient_early_term(benchmark::State& state) {
  product_options popts;
  popts.lump_symmetry = false;  // keep the chain large on purpose
  const product_ctmc product =
      build_product_ctmc(standby_trains_tree(8), popts);
  transient_controls controls;
  controls.early_exit = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reach_failed_probability(product.chain, 200.0, 1e-10, controls));
  }
}
BENCHMARK(bm_stage3_transient_early_term)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void bm_stage3_quantify_trains(benchmark::State& state) {
  const bool fast = state.range(0) != 0;
  const sd_fault_tree tree = standby_trains_tree(6);
  product_options popts;
  popts.lump_symmetry = fast;
  popts.packed_state_keys = fast;
  transient_controls controls;
  controls.early_exit = fast;
  for (auto _ : state) {
    const product_ctmc product = build_product_ctmc(tree, popts);
    benchmark::DoNotOptimize(
        reach_failed_probability(product.chain, 96.0, 1e-10, controls));
  }
}
BENCHMARK(bm_stage3_quantify_trains)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --- Prep rewrite-layer kernels -----------------------------------------

const fault_tree& industrial_static() {
  static const fault_tree ft = generate_industrial({}).ft;
  return ft;
}

void bm_prep_normalise(benchmark::State& state) {
  // Mandatory normalisation only (what prep still does under --no-prep).
  prep_options opts;
  opts.enabled = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(preprocess(industrial_static(), opts).tree.size());
  }
}
BENCHMARK(bm_prep_normalise)->Unit(benchmark::kMicrosecond);

void bm_prep_full(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(preprocess(industrial_static()).tree.size());
  }
  const prep_result p = preprocess(industrial_static());
  state.counters["prep.nodes_before"] =
      static_cast<double>(p.stats.nodes_before);
  state.counters["prep.nodes_after"] =
      static_cast<double>(p.stats.nodes_after);
  state.counters["prep.modules"] = static_cast<double>(p.stats.modules_found);
  state.counters["prep.passes"] = static_cast<double>(p.stats.passes);
}
BENCHMARK(bm_prep_full)->Unit(benchmark::kMicrosecond);

void bm_prep_find_modules(benchmark::State& state) {
  // The linear-time DFS-timestamp module detection on its own.
  const prep_result p = preprocess(industrial_static());
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_modules(p.tree).size());
  }
}
BENCHMARK(bm_prep_find_modules)->Unit(benchmark::kMicrosecond);

void bm_prep_engine_bwr(benchmark::State& state) {
  // End-to-end A/B on the dynamic BWR study: Arg(0) = prep off (mandatory
  // normalisation only, no modular stage 2), Arg(1) = prep on.
  analysis_options aopts;
  aopts.cutoff = 1e-10;
  aopts.threads = 1;
  aopts.prep.enabled = state.range(0) != 0;
  analysis_engine engine(aopts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(bwr_dynamic()).failure_probability);
  }
  const analysis_result last = engine.run(bwr_dynamic());
  for (const auto& [name, value] : last.stats.metrics()) {
    state.counters[name] = value;
  }
}
BENCHMARK(bm_prep_engine_bwr)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void bm_prep_engine_industrial(benchmark::State& state) {
  // Same A/B on the (purely static) industrial PSA study, where the
  // rewrites and per-module generation pay off the most.
  static const sd_fault_tree tree = sd_fault_tree(industrial_static());
  analysis_options aopts;
  aopts.cutoff = 1e-15;
  aopts.threads = 1;
  aopts.prep.enabled = state.range(0) != 0;
  analysis_engine engine(aopts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(tree).failure_probability);
  }
  const analysis_result last = engine.run(tree);
  for (const auto& [name, value] : last.stats.metrics()) {
    state.counters[name] = value;
  }
}
BENCHMARK(bm_prep_engine_industrial)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// --- Packed-bitset cutset kernels ---------------------------------------
// Arg(0) is the vector baseline, Arg(1) the packed kernel.

/// A redundant cutset family derived from the industrial model's real
/// minimal cutsets: the MCS list plus seeded pairwise unions (guaranteed
/// subsumed) plus duplicates — the shape minimize_cutsets() sees from raw
/// MOCUS output.
const std::vector<cutset>& redundant_industrial_family() {
  static const std::vector<cutset> family = [] {
    mocus_options opts;
    opts.cutoff = 1e-15;
    const std::vector<cutset> mcs = mocus(industrial_static(), opts).cutsets;
    rng random(0xb17);
    std::vector<cutset> out = mcs;
    for (std::size_t i = 0; i < 2 * mcs.size(); ++i) {
      const cutset& a = mcs[random.below(mcs.size())];
      const cutset& b = mcs[random.below(mcs.size())];
      cutset joined(a.size() + b.size());
      std::merge(a.begin(), a.end(), b.begin(), b.end(), joined.begin());
      joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
      out.push_back(std::move(joined));
    }
    return out;
  }();
  return family;
}

void bm_bitset_minimize_industrial(benchmark::State& state) {
  const bool packed = state.range(0) != 0;
  const std::vector<cutset>& family = redundant_industrial_family();
  for (auto _ : state) {
    std::vector<cutset> copy = family;
    benchmark::DoNotOptimize(
        packed ? minimize_cutsets(std::move(copy)).size()
               : testing::minimize_cutsets_reference(std::move(copy)).size());
  }
  state.counters["family"] = static_cast<double>(family.size());
  minimize_stats stats;
  state.counters["kept"] = static_cast<double>(
      minimize_cutsets(family, &stats).size());
  state.counters["mocus.subset_tests"] =
      static_cast<double>(stats.subset_tests);
  state.counters["bitset.words"] = static_cast<double>(stats.universe_words);
}
BENCHMARK(bm_bitset_minimize_industrial)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void bm_bitset_subset_kernel(benchmark::State& state) {
  // The raw subsumption primitive on all pairs of 256 random sorted sets
  // over a 512-bit universe: word-loop (a & ~b) == 0 vs std::includes.
  const bool packed = state.range(0) != 0;
  constexpr std::size_t universe = 512;
  constexpr std::size_t n = 256;
  rng random(0x5e7);
  std::vector<cutset> sets(n);
  std::vector<packed_bitset> bits(n, packed_bitset(universe));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 2 + random.below(11);
    for (std::size_t j = 0; j < len; ++j) {
      sets[i].push_back(static_cast<node_index>(random.below(universe)));
    }
    std::sort(sets[i].begin(), sets[i].end());
    sets[i].erase(std::unique(sets[i].begin(), sets[i].end()), sets[i].end());
    for (node_index e : sets[i]) bits[i].set(e);
  }
  for (auto _ : state) {
    std::size_t subsets = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (packed) {
          subsets += bits[i].is_subset_of(bits[j]) ? 1 : 0;
        } else {
          subsets += std::includes(sets[j].begin(), sets[j].end(),
                                   sets[i].begin(), sets[i].end())
                         ? 1
                         : 0;
        }
      }
    }
    benchmark::DoNotOptimize(subsets);
  }
}
BENCHMARK(bm_bitset_subset_kernel)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --- Observability overhead (DESIGN.md §11). The acceptance bar is <2%
// on instrumented pipelines with recording compiled in but disabled; the
// per-callsite benches below show the absolute cost a disabled span or
// counter adds, and the engine A/B pair shows it drowning in real work.

void bm_obs_span_disabled(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::span_scope span("bench.span", "bench");
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(bm_obs_span_disabled);

void bm_obs_span_enabled(benchmark::State& state) {
  obs::set_enabled(true);
  obs::trace_recorder::instance().clear();
  std::size_t n = 0;
  for (auto _ : state) {
    {
      obs::span_scope span("bench.span", "bench");
      benchmark::DoNotOptimize(span.active());
    }
    // Bound recorder memory; the clear is amortised out of the hot loop.
    if (++n % 65536 == 0) obs::trace_recorder::instance().clear();
  }
  obs::set_enabled(false);
  obs::trace_recorder::instance().clear();
}
BENCHMARK(bm_obs_span_enabled);

void bm_obs_counter_add(benchmark::State& state) {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("bench.count");
  for (auto _ : state) {
    c.add(1);
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(bm_obs_counter_add);

void bm_engine_obs(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;
  obs::set_enabled(tracing);
  analysis_options aopts;
  aopts.cutoff = 1e-10;
  aopts.threads = 1;
  analysis_engine engine(aopts);
  for (auto _ : state) {
    if (tracing) obs::trace_recorder::instance().clear();
    benchmark::DoNotOptimize(engine.run(bwr_dynamic()).failure_probability);
  }
  // Attach the canonical engine metrics to the row, so BENCH_*.json files
  // carry the same keys as a --metrics-json dump (DESIGN.md §11).
  const analysis_result last = engine.run(bwr_dynamic());
  for (const auto& [name, value] : last.stats.metrics()) {
    state.counters[name] = value;
  }
  obs::set_enabled(false);
  obs::trace_recorder::instance().clear();
}
BENCHMARK(bm_engine_obs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void bm_generate_industrial(benchmark::State& state) {
  industrial_options opts;
  opts.num_frontline_systems = 12;
  opts.num_initiating_events = 8;
  opts.sequences_per_ie = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_industrial(opts).ft.size());
  }
}
BENCHMARK(bm_generate_industrial)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
