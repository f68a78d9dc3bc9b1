// Structure-preservation tests for the src/prep rewrite layer: every
// rewrite (atleast lowering, folding, coalescing, duplicate merging,
// common-argument factoring, absorption) must leave the monotone structure
// function over the source basic events untouched — checked by exhaustive
// scenario enumeration, by minimal-cutset-list agreement and by running
// the full engine with prep on vs off across backends and thread counts —
// and the module-orchestrated stage 2 built on it must match its unpriced
// reference (modular_reference.hpp) exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "../bench/bench_common.hpp"
#include "bdd/ft_bdd.hpp"
#include "engine/cutset_source.hpp"
#include "engine/engine.hpp"
#include "engine/modular.hpp"
#include "ft/fault_tree.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/cutset.hpp"
#include "mcs/mocus.hpp"
#include "modular_reference.hpp"
#include "obs/obs.hpp"
#include "prep/prep.hpp"
#include "sdft/translate.hpp"
#include "test_models.hpp"
#include "util/thread_pool.hpp"

namespace sdft {
namespace {

/// Maps cutsets over the prep tree back to source indices and re-sorts
/// canonically (size, then content), mirroring the engine's order.
std::vector<cutset> mapped_to_source(const prep_result& prep,
                                     std::vector<cutset> sets) {
  for (cutset& c : sets) {
    for (node_index& e : c) e = prep.to_source[e];
    std::sort(c.begin(), c.end());
  }
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return sets;
}

std::vector<cutset> sorted_canonically(std::vector<cutset> sets) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return sets;
}

/// Exhaustively checks that the prep tree computes the same boolean
/// function of the source basic events as the source tree.
void expect_same_structure_function(const fault_tree& src,
                                    const prep_result& prep) {
  const std::vector<node_index> basics = src.basic_events();
  ASSERT_LE(basics.size(), 16u) << "scenario enumeration oracle limit";
  for (std::uint64_t mask = 0; mask < (1ull << basics.size()); ++mask) {
    std::vector<char> src_failed(src.size(), 0);
    for (std::size_t b = 0; b < basics.size(); ++b) {
      src_failed[basics[b]] = static_cast<char>((mask >> b) & 1u);
    }
    std::vector<char> prep_failed(prep.tree.size(), 0);
    for (node_index i = 0; i < prep.tree.size(); ++i) {
      if (!prep.tree.is_basic(i)) continue;
      ASSERT_NE(prep.to_source[i], fault_tree::npos);
      prep_failed[i] = src_failed[prep.to_source[i]];
    }
    ASSERT_EQ(src.fails(src.top(), src_failed),
              prep.tree.fails(prep.tree.top(), prep_failed))
        << "scenario mask " << mask;
  }
}

TEST(Prep, AtleastLoweringMatchesBruteForce) {
  for (std::uint32_t n = 2; n <= 6; ++n) {
    for (std::uint32_t k = 1; k <= n; ++k) {
      fault_tree src;
      std::vector<node_index> events;
      for (std::uint32_t i = 0; i < n; ++i) {
        events.push_back(src.add_basic_event("e" + std::to_string(i),
                                             0.05 + 0.03 * i));
      }
      src.set_top(src.add_atleast_gate("vote", k, events));
      const prep_result prep = preprocess(src);
      for (node_index i = 0; i < prep.tree.size(); ++i) {
        if (prep.tree.is_gate(i)) {
          EXPECT_NE(prep.tree.node(i).type, gate_type::atleast_gate);
        }
      }
      expect_same_structure_function(src, prep);
      EXPECT_NEAR(prep.tree.probability_brute_force(),
                  src.probability_brute_force(), 1e-15)
          << k << "/" << n;
      // The lowered network must yield exactly the C(n, k) minimal cutsets.
      const std::vector<cutset> mcs = mapped_to_source(
          prep, mocus(prep.tree, mocus_options{}).cutsets);
      EXPECT_EQ(mcs, sorted_canonically(minimal_cutsets_brute_force(src)))
          << k << "/" << n;
      EXPECT_TRUE(are_minimal_cutsets(src, mcs));
    }
  }
}

TEST(Prep, RandomTreesPreserveStructureFunctionAndCutsets) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const sd_fault_tree sd = testing::make_random_static_tree(0xb0 + seed);
    const fault_tree& src = sd.structure();
    const prep_result prep = preprocess(src);
    expect_same_structure_function(src, prep);

    // The prep tree's cutsets, mapped back, equal the source tree's own.
    const std::vector<cutset> from_prep = mapped_to_source(
        prep, mocus(prep.tree, mocus_options{}).cutsets);
    EXPECT_EQ(from_prep,
              sorted_canonically(mocus(src, mocus_options{}).cutsets))
        << "seed " << seed;

    // Exact top-event probability is preserved (BDD on both trees).
    EXPECT_NEAR(ft_bdd(prep.tree).probability(), ft_bdd(src).probability(),
                1e-14)
        << "seed " << seed;
  }
}

TEST(Prep, DisabledKeepsNormalisationOnly) {
  fault_tree src;
  std::vector<node_index> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(src.add_basic_event("e" + std::to_string(i), 0.1));
  }
  const node_index vote = src.add_atleast_gate("vote", 2, events);
  const node_index chain =
      src.add_gate("chain", gate_type::or_gate, {vote});  // foldable
  src.set_top(src.add_gate("top", gate_type::or_gate, {chain, events[0]}));

  prep_options opts;
  opts.enabled = false;
  const prep_result prep = preprocess(src, opts);
  for (node_index i = 0; i < prep.tree.size(); ++i) {
    if (prep.tree.is_gate(i)) {
      EXPECT_NE(prep.tree.node(i).type, gate_type::atleast_gate);
    }
  }
  EXPECT_GT(prep.stats.atleast_lowered, 0u);
  EXPECT_EQ(prep.stats.constants_folded, 0u);
  EXPECT_EQ(prep.stats.gates_coalesced, 0u);
  EXPECT_EQ(prep.stats.duplicates_merged, 0u);
  EXPECT_EQ(prep.stats.common_args_merged, 0u);
  EXPECT_EQ(prep.stats.absorptions, 0u);
  EXPECT_EQ(prep.module_roots,
            std::vector<node_index>{prep.tree.top()});
  expect_same_structure_function(src, prep);
}

TEST(Prep, RewritesFireOnRedundantTree) {
  // OR(AND(x, a), AND(x, b), OR(x, y), x) exercises factoring, absorption
  // and folding together; the function collapses to OR(x, y).
  fault_tree src;
  const node_index x = src.add_basic_event("x", 0.1);
  const node_index y = src.add_basic_event("y", 0.2);
  const node_index a = src.add_basic_event("a", 0.3);
  const node_index b = src.add_basic_event("b", 0.4);
  const node_index g1 = src.add_gate("g1", gate_type::and_gate, {x, a});
  const node_index g2 = src.add_gate("g2", gate_type::and_gate, {x, b});
  const node_index g3 = src.add_gate("g3", gate_type::or_gate, {x, y});
  src.set_top(src.add_gate("top", gate_type::or_gate, {g1, g2, g3, x}));

  const prep_result prep = preprocess(src);
  expect_same_structure_function(src, prep);
  EXPECT_LT(prep.tree.size(), src.size());
  EXPECT_GT(prep.stats.nodes_eliminated(), 0u);
  const std::vector<cutset> mcs = mapped_to_source(
      prep, mocus(prep.tree, mocus_options{}).cutsets);
  EXPECT_EQ(mcs, (std::vector<cutset>{{x}, {y}}));
}

TEST(Prep, ToSourceMapsBasicEventsFaithfully) {
  const sd_fault_tree sd = testing::make_random_static_tree(0xfeed);
  const fault_tree& src = sd.structure();
  const prep_result prep = preprocess(src);
  std::size_t mapped = 0;
  for (node_index i = 0; i < prep.tree.size(); ++i) {
    if (!prep.tree.is_basic(i)) continue;
    const node_index s = prep.to_source[i];
    ASSERT_NE(s, fault_tree::npos);
    ASSERT_TRUE(src.is_basic(s));
    EXPECT_EQ(prep.tree.node(i).name, src.node(s).name);
    EXPECT_EQ(prep.tree.node(i).probability, src.node(s).probability);
    ++mapped;
  }
  EXPECT_GT(mapped, 0u);
  // Module roots are topological with the top gate last.
  ASSERT_FALSE(prep.module_roots.empty());
  EXPECT_EQ(prep.module_roots.back(), prep.tree.top());
}

/// Every prep_stats counter of preprocess(src): nodes and gates before
/// and after, atleast gates lowered, constants folded, gates coalesced,
/// duplicates merged, common arguments merged, absorptions, passes and
/// modules.
std::array<std::size_t, 12> prep_counters(const fault_tree& src) {
  const prep_stats s = preprocess(src).stats;
  return {s.nodes_before,     s.nodes_after,        s.gates_before,
          s.gates_after,      s.atleast_lowered,    s.constants_folded,
          s.gates_coalesced,  s.duplicates_merged,  s.common_args_merged,
          s.absorptions,      s.passes,             s.modules_found};
}

TEST(Prep, PinnedRewriteCounters) {
  // The rewrite pipeline is a pure function of the tree's structure: every
  // counter below is pinned, so a change to how a pass walks or
  // deduplicates its inputs must leave the rewrite itself unchanged.
  using counters = std::array<std::size_t, 12>;
  EXPECT_EQ(prep_counters(make_bwr_model({}).structure()),
            (counters{122, 95, 48, 21, 0, 1, 29, 0, 7, 0, 3, 4}));
  EXPECT_EQ(prep_counters(generate_industrial(bench::model1_options(false)).ft),
            (counters{1053, 549, 642, 138, 0, 360, 152, 7, 76, 0, 8, 32}));
  // FT-bar of full-size model 1 annotated as in §VI-B (30 % dynamic, 10 %
  // triggered): the structure the analyze_paper benchmark runs.
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  const sd_fault_tree study = testing::annotated_study(
      generate_industrial(bench::model1_options(true)), bench::paper_cutoff,
      an);
  EXPECT_EQ(prep_counters(translate_to_static(study, 24.0).ft_bar),
            (counters{7314, 2911, 5019, 616, 0, 3600, 827, 4, 162, 0, 8, 134}));
  // Random trees reach absorption, which those models never do: their
  // counters summed over 200 seeds.
  counters sum{};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const counters c =
        prep_counters(testing::make_random_static_tree(seed).structure());
    for (std::size_t i = 0; i < c.size(); ++i) sum[i] += c[i];
  }
  EXPECT_EQ(sum, (counters{2484, 1372, 1200, 387, 0, 56, 469, 1, 113, 414,
                           483, 296}));
}

/// Engine-level agreement: with prep on and with prep off, several thread
/// counts must produce the bit-identical probability and cutset list.
void expect_engine_agreement(const sd_fault_tree& tree, double horizon,
                             double cutoff, const std::string& model) {
  analysis_options opts;
  opts.horizon = horizon;
  opts.cutoff = cutoff;
  opts.keep_cutset_details = true;
  opts.threads = 1;
  opts.backend = cutset_backend::mocus;
  opts.prep.enabled = false;
  const analysis_result reference = analyze(tree, opts);
  ASSERT_GT(reference.num_cutsets, 0u) << model;
  const std::vector<cutset> reference_list =
      testing::engine_cutsets(reference);

  for (const bool prep_enabled : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      opts.threads = threads;
      opts.prep.enabled = prep_enabled;
      const analysis_result r = analyze(tree, opts);
      const std::string label = model +
                                ": threads=" + std::to_string(threads) +
                                (prep_enabled ? " prep" : " no-prep");
      EXPECT_EQ(testing::engine_cutsets(r), reference_list) << label;
      EXPECT_EQ(r.failure_probability, reference.failure_probability)
          << label;
    }
  }
}

TEST(Prep, EngineAgreementExample3) {
  expect_engine_agreement(testing::example3_sd(), 24.0, 0.0, "example3");
}

TEST(Prep, EngineAgreementRandomSdTrees) {
  for (int seed : {3, 11}) {
    const testing::random_sd_tree r =
        testing::make_random_sd_tree(0x9c + static_cast<std::uint64_t>(seed));
    expect_engine_agreement(r.tree, 12.0, 0.0,
                            "random seed " + std::to_string(seed));
  }
}

// --- Priced top-module recombination ----------------------------------------

/// One model of the recombination test: its FT-bar translation and prep.
struct modular_case {
  std::string name;
  static_translation translation;
  prep_result prep;
  double floor;  // cutoffs are placed on values at least this large
  bool complete;  // small enough to run at cutoff 0
};

modular_case make_modular_case(std::string name, const sd_fault_tree& tree,
                               double floor, bool complete) {
  modular_case c{std::move(name), translate_to_static(tree, 24.0), {}, floor,
                 complete};
  c.prep = preprocess(c.translation.ft_bar);
  return c;
}

/// Up to `count` distinct values of `values` that are at least `floor`,
/// spread from the largest down.
std::vector<double> spread_values(std::vector<double> values, double floor,
                                  std::size_t count) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [&](double v) { return v < floor || v <= 0.0; }),
               values.end());
  std::sort(values.begin(), values.end(), std::greater<>());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<double> out;
  for (std::size_t i = 0; i < count && !values.empty(); ++i) {
    out.push_back(values[i * (values.size() - 1) / (count - 1)]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Value of `key` among the args of `span`, or -1 when absent.
double span_arg(const obs::span_record& span, const char* key) {
  for (std::size_t i = 0; i < span.args.count; ++i) {
    if (std::strcmp(span.args.keys[i], key) == 0) return span.args.values[i];
  }
  return -1.0;
}

/// Bench-size industrial model 1.
industrial_model bench_model1() {
  return generate_industrial(bench::model1_options(false));
}

TEST(ModularRecombination, PricedTopMatchesUnpricedReference) {
  // generate_modular() prices the top module's products and never builds
  // those that cannot reach the cutoff. Its list, discards, look-ahead
  // prunes and module cutsets must equal the reference that builds every
  // product and filters afterwards: at cutoffs placed exactly on final
  // cutset probabilities (where a price without the relative slack rounds
  // below the cutoff), exactly on pseudo-event bounds, at 1e-15 and, on
  // the smaller models, at 0 and below min_priced_cutoff, on one and three
  // threads.
  std::vector<modular_case> cases;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    cases.push_back(make_modular_case(
        "shared_or_tree " + std::to_string(seed),
        sd_fault_tree(testing::shared_or_tree(seed)), 0.0, true));
  }
  cases.push_back(make_modular_case("bwr", make_bwr_model({}), 1e-15, true));
  // Bench-size industrial model 1, unannotated and with the paper's §VI-B
  // annotation.
  const industrial_model model = bench_model1();
  cases.push_back(
      make_modular_case("industrial", sd_fault_tree(model.ft), 1e-13, false));
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  cases.push_back(make_modular_case(
      "industrial annotated", testing::annotated_study(model, 1e-15, an),
      1e-13, false));

  const mocus_source source;
  thread_pool pool3(3);
  obs::set_enabled(true);
  std::size_t modular_runs = 0;
  std::size_t priced_out = 0;
  for (const modular_case& c : cases) {
    const testing::modular_reference low = testing::reference_generate_modular(
        c.prep, c.translation, source, c.floor);
    std::vector<double> cutoffs = spread_values(low.probabilities, c.floor, 5);
    // Bounds above every final cutset would leave the top module nothing
    // to build.
    const double likeliest = cutoffs.empty() ? 0.0 : cutoffs.front();
    std::vector<double> bounds;
    for (double b : low.bounds) {
      if (b <= likeliest) bounds.push_back(b);
    }
    for (double b : spread_values(bounds, c.floor, 3)) cutoffs.push_back(b);
    cutoffs.push_back(1e-15);
    if (c.complete) {
      // No cutoff, and one below min_priced_cutoff: nothing is priced out.
      cutoffs.push_back(0.0);
      cutoffs.push_back(0x1p-1010);
    }
    for (double cutoff : cutoffs) {
      const testing::modular_reference ref =
          testing::reference_generate_modular(c.prep, c.translation, source,
                                              cutoff);
      const modular_generation& want = ref.result;
      for (thread_pool* pool : {static_cast<thread_pool*>(nullptr), &pool3}) {
        const std::string label =
            c.name + " cutoff " + std::to_string(cutoff) + " threads " +
            std::to_string(pool == nullptr ? 1 : pool->size());
        obs::trace_recorder::instance().clear();
        const modular_generation got =
            generate_modular(c.prep, c.translation, source, cutoff, pool);
        EXPECT_EQ(got.generation.cutsets, want.generation.cutsets) << label;
        EXPECT_EQ(got.generation.discarded, want.generation.discarded)
            << label;
        EXPECT_EQ(got.generation.lookahead_pruned,
                  want.generation.lookahead_pruned)
            << label;
        EXPECT_EQ(got.generation.partials_processed,
                  want.generation.partials_processed)
            << label;
        EXPECT_EQ(got.module_cutsets, want.module_cutsets) << label;
        EXPECT_EQ(got.modules_analyzed, want.modules_analyzed) << label;
        if (got.modules_analyzed < 2) continue;
        // The span accounts for every product of the top module: built,
        // or skipped by price.
        const std::vector<obs::span_record> spans =
            obs::trace_recorder::instance().snapshot();
        const auto span = std::find_if(
            spans.begin(), spans.end(), [](const obs::span_record& s) {
              return std::strcmp(s.name, "cutsets.modules") == 0;
            });
        ASSERT_NE(span, spans.end()) << label;
        EXPECT_EQ(span_arg(*span, "top_products") +
                      span_arg(*span, "top_priced_out"),
                  static_cast<double>(ref.top_products))
            << label;
        ++modular_runs;
        priced_out += static_cast<std::size_t>(span_arg(*span, "top_priced_out"));
      }
    }
  }
  obs::set_enabled(false);
  EXPECT_GT(modular_runs, 0u);
  EXPECT_GT(priced_out, 0u);
}

TEST(ModularRecombination, CutoffAboveEveryCutsetLeavesNothing) {
  // A cutoff just above the likeliest cutset keeps nothing, with prep (the
  // modular path, top module priced) and without it: no cutsets and a
  // failure probability of exactly 0. Each run discards what the unpriced
  // reference discards on the same prep; the two counts differ, since with
  // prep every module's MOCUS prices its own partials.
  const mocus_source source;
  const std::vector<std::pair<std::string, sd_fault_tree>> models{
      {"bwr", make_bwr_model({})},
      {"industrial", sd_fault_tree(bench_model1().ft)}};
  for (const auto& [name, tree] : models) {
    analysis_options opts;
    opts.horizon = 24.0;
    opts.cutoff = 1e-15;
    opts.threads = 2;
    double likeliest = 0.0;
    for (const cutset_result& c : analyze(tree, opts).cutsets) {
      likeliest = std::max(likeliest, c.probability);
    }
    ASSERT_GT(likeliest, 0.0) << name;
    opts.cutoff = likeliest * (1.0 + 1e-12);
    const static_translation translation =
        translate_to_static(tree, opts.horizon);
    for (bool prep_on : {true, false}) {
      const std::string label = name + (prep_on ? " prep" : " no prep");
      opts.prep.enabled = prep_on;
      const analysis_result r = analyze(tree, opts);
      EXPECT_TRUE(r.cutsets.empty()) << label;
      EXPECT_EQ(r.num_cutsets, 0u) << label;
      EXPECT_EQ(r.failure_probability, 0.0) << label;
      const prep_result prep = preprocess(translation.ft_bar, opts.prep);
      EXPECT_EQ(prep.module_roots.size() > 1, prep_on) << label;
      const testing::modular_reference ref =
          testing::reference_generate_modular(prep, translation, source,
                                              opts.cutoff);
      EXPECT_TRUE(ref.result.generation.cutsets.empty()) << label;
      EXPECT_EQ(r.stats.source_discarded, ref.result.generation.discarded)
          << label;
      EXPECT_GT(r.stats.source_discarded, 0u) << label;
    }
  }

  // Below min_priced_cutoff nothing is priced; on BWR, whose cutsets all
  // lie far above it, the list is the cutoff-0 one.
  const sd_fault_tree bwr = make_bwr_model({});
  analysis_options opts;
  opts.horizon = 24.0;
  opts.threads = 2;
  const analysis_result all = analyze(bwr, opts);
  opts.cutoff = 0x1p-1010;
  const analysis_result tiny = analyze(bwr, opts);
  ASSERT_GT(all.cutsets.size(), 0u);
  EXPECT_EQ(testing::engine_cutsets(tiny), testing::engine_cutsets(all));
  EXPECT_EQ(tiny.failure_probability, all.failure_probability);
}

}  // namespace
}  // namespace sdft
