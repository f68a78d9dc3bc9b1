// Structure-cache tests: the canonical signature keys structure only
// (parameters excluded), engine hits replay stages 1b-2 bit-identically,
// envelope dominance decides reuse exactly, and both engine-owned caches
// stay LRU-bounded. The Concurrent* tests hammer the shared caches from
// many threads and are the TSan targets of the suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_common.hpp"
#include "core/mcs_model.hpp"
#include "engine/engine.hpp"
#include "engine/quant_cache.hpp"
#include "engine/struct_cache.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "test_models.hpp"
#include "util/lru.hpp"

namespace sdft {
namespace {

using namespace sdft::testing;

std::vector<cutset> cutset_list(const analysis_result& result) {
  std::vector<cutset> out;
  out.reserve(result.cutsets.size());
  for (const auto& q : result.cutsets) out.push_back(q.events);
  return out;
}

sd_fault_tree bwr_tree() {
  bwr_options opt;
  opt.dynamic_events = true;
  opt.repair_rate = 0.1;
  return make_bwr_model(with_bwr_triggers(opt, 2));
}

TEST(StructuralSignature, IgnoresParameters) {
  const sd_fault_tree base = example3_sd();
  sd_fault_tree reparam = example3_sd();
  reparam.structure().set_probability(reparam.structure().find("a"), 0.42);
  // Different CTMC rates are parameters too.
  const sd_fault_tree rerate = example3_sd(2e-3, 1e-2);
  const prep_options prep;
  EXPECT_EQ(structural_signature(base, prep),
            structural_signature(reparam, prep));
  EXPECT_EQ(structural_signature(base, prep),
            structural_signature(rerate, prep));
}

TEST(StructuralSignature, SensitiveToStructureAndPrep) {
  const sd_fault_tree base = example3_sd();
  const prep_options prep;

  // Another gate wiring: swap the top OR for an AND.
  sd_fault_tree other = example3_sd();
  {
    sd_fault_tree rebuilt;
    const node_index a = rebuilt.add_static_event("a", p_fts);
    const node_index e = rebuilt.add_static_event("e", p_tank);
    rebuilt.set_top(rebuilt.add_gate("top", gate_type::and_gate, {a, e}));
    rebuilt.validate();
    EXPECT_NE(structural_signature(base, prep),
              structural_signature(rebuilt, prep));
  }

  // The prep configuration is part of the key (it decides the prep tree
  // cached entries carry).
  prep_options no_prep;
  no_prep.enabled = false;
  EXPECT_NE(structural_signature(base, prep),
            structural_signature(base, no_prep));

  // Static/dynamic partition matters even with identical wiring: example3
  // vs. a clone whose dynamic event b became a static event.
  sd_fault_tree partition;
  {
    const node_index a = partition.add_static_event("a", p_fts);
    const node_index b = partition.add_static_event("b", 0.01);
    const node_index c = partition.add_static_event("c", p_fts);
    const node_index d = partition.add_dynamic_event(
        "d", example2_pump2(1e-3, 5e-2));
    const node_index e = partition.add_static_event("e", p_tank);
    const node_index pump1 =
        partition.add_gate("PUMP1", gate_type::or_gate, {a, b});
    const node_index pump2 =
        partition.add_gate("PUMP2", gate_type::or_gate, {c, d});
    const node_index pumps =
        partition.add_gate("PUMPS", gate_type::and_gate, {pump1, pump2});
    partition.set_top(
        partition.add_gate("COOLING", gate_type::or_gate, {e, pumps}));
    partition.set_trigger(pump1, d);
    partition.validate();
  }
  EXPECT_NE(structural_signature(base, prep),
            structural_signature(partition, prep));
}

TEST(StructureCache, RepeatRunHitsAndMatches) {
  analysis_options opts;
  opts.horizon = 24.0;
  const sd_fault_tree tree = example3_sd();
  analysis_engine engine(opts);

  const analysis_result first = engine.run(tree);
  EXPECT_EQ(first.stats.struct_cache_hits, 0u);
  EXPECT_EQ(first.stats.struct_cache_misses, 1u);
  EXPECT_EQ(engine.structures().size(), 1u);

  const analysis_result second = engine.run(tree);
  EXPECT_EQ(second.stats.struct_cache_hits, 1u);
  EXPECT_EQ(second.stats.struct_cache_misses, 0u);
  EXPECT_EQ(second.failure_probability, first.failure_probability);
  EXPECT_EQ(cutset_list(second), cutset_list(first));
}

TEST(StructureCache, ReparameterizedHitBitIdenticalToFreshEngine) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 0.0;  // complete list: reusable for any parameter point
  const sd_fault_tree base = bwr_tree();
  analysis_engine warm(opts);
  (void)warm.run(base);

  // Perturb several static probabilities (both up and down — with a
  // complete list the envelope never blocks reuse).
  sd_fault_tree perturbed = base;
  fault_tree& ft = perturbed.structure();
  ft.set_probability(ft.find("DG1_FTS"), 0.05);
  ft.set_probability(ft.find("CST"), 1e-7);

  const analysis_result hit = warm.run(perturbed);
  EXPECT_EQ(hit.stats.struct_cache_hits, 1u);

  analysis_engine cold(opts);
  const analysis_result fresh = cold.run(perturbed);
  EXPECT_EQ(hit.failure_probability, fresh.failure_probability);
  EXPECT_EQ(cutset_list(hit), cutset_list(fresh));
  EXPECT_EQ(hit.num_cutsets, fresh.num_cutsets);
}

TEST(StructureCache, CutoffRefilterBitIdenticalToFreshEngine) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-12;
  const sd_fault_tree base = bwr_tree();
  analysis_engine warm(opts);
  const analysis_result first = warm.run(base);
  ASSERT_GT(first.num_cutsets, 0u);

  // Lowered probabilities stay inside the envelope: the hit re-filters
  // the cached list and must reproduce a fresh run's list bit for bit
  // (some cutsets drop below the cutoff at the new point).
  sd_fault_tree lowered = base;
  fault_tree& ft = lowered.structure();
  ft.set_probability(ft.find("DG1_FTS"), 8e-4);
  ft.set_probability(ft.find("DG2_FTS"), 8e-4);

  const analysis_result hit = warm.run(lowered);
  EXPECT_EQ(hit.stats.struct_cache_hits, 1u);

  analysis_engine cold(opts);
  const analysis_result fresh = cold.run(lowered);
  EXPECT_EQ(hit.failure_probability, fresh.failure_probability);
  EXPECT_EQ(cutset_list(hit), cutset_list(fresh));
}

TEST(StructureCache, EscapedEnvelopeRegenerates) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-12;
  const sd_fault_tree base = bwr_tree();
  analysis_engine engine(opts);
  (void)engine.run(base);

  // A raised probability escapes the stored envelope: cached list may
  // miss cutsets that are now relevant, so the engine must regenerate —
  // and still produce the fresh-engine result.
  sd_fault_tree raised = base;
  fault_tree& ft = raised.structure();
  ft.set_probability(ft.find("DG1_FTS"), 0.5);

  const analysis_result miss = engine.run(raised);
  EXPECT_EQ(miss.stats.struct_cache_hits, 0u);
  EXPECT_EQ(miss.stats.struct_cache_misses, 1u);

  analysis_engine cold(opts);
  const analysis_result fresh = cold.run(raised);
  EXPECT_EQ(miss.failure_probability, fresh.failure_probability);
  EXPECT_EQ(cutset_list(miss), cutset_list(fresh));

  // The entry was re-anchored at the raised point, so repeating it hits.
  const analysis_result again = engine.run(raised);
  EXPECT_EQ(again.stats.struct_cache_hits, 1u);
  EXPECT_EQ(again.failure_probability, fresh.failure_probability);
}

TEST(StructureCache, TighterCutoffRegenerates) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-10;
  const sd_fault_tree tree = bwr_tree();
  analysis_engine engine(opts);
  (void)engine.run(tree);

  // cutoff' < gen_cutoff: the cached list may lack cutsets the tighter
  // run keeps, so reuse is forbidden.
  analysis_options tighter = opts;
  tighter.cutoff = 1e-14;
  const analysis_result miss = engine.run(tree, tighter);
  EXPECT_EQ(miss.stats.struct_cache_hits, 0u);

  analysis_engine cold(tighter);
  const analysis_result fresh = cold.run(tree);
  EXPECT_EQ(miss.failure_probability, fresh.failure_probability);
  EXPECT_EQ(cutset_list(miss), cutset_list(fresh));

  // The looser original cutoff now reuses the tighter entry (gen_cutoff
  // 1e-14 <= 1e-10) and re-filters to the original list.
  const analysis_result loose = engine.run(tree, opts);
  EXPECT_EQ(loose.stats.struct_cache_hits, 1u);
  analysis_engine cold_loose(opts);
  EXPECT_EQ(loose.failure_probability,
            cold_loose.run(tree).failure_probability);
}

TEST(StructureCache, PrimeMakesFirstRunHit) {
  analysis_options opts;
  opts.horizon = 24.0;
  const sd_fault_tree tree = example3_sd();
  analysis_engine engine(opts);
  engine.prime(tree);
  EXPECT_EQ(engine.structures().size(), 1u);

  const analysis_result r = engine.run(tree);
  EXPECT_EQ(r.stats.struct_cache_hits, 1u);
  EXPECT_EQ(r.failure_probability, analyze(tree, opts).failure_probability);
}

/// Per-cutset probabilities of an engine run, in list order.
std::vector<double> cutset_probabilities(const analysis_result& result) {
  std::vector<double> out;
  out.reserve(result.cutsets.size());
  for (const auto& q : result.cutsets) out.push_back(q.probability);
  return out;
}

TEST(StructureCache, WarmRunSolvesNoTriggerSets) {
  // The serve pattern: prime at the envelope (longest horizon), run once
  // there, then answer a request at a new horizon with lowered
  // overrides. Its cutsets are a subset of the first run's, so every
  // trigger set it needs is already in the entry's memo.
  analysis_options envelope_opts;
  envelope_opts.horizon = 48.0;
  envelope_opts.cutoff = 1e-12;
  const sd_fault_tree base = bwr_tree();
  analysis_engine engine(envelope_opts);
  engine.prime(base);
  const analysis_result first = engine.run(base);
  EXPECT_EQ(first.stats.struct_cache_hits, 1u);
  EXPECT_GT(first.stats.trigger_set_misses, 0u);

  sd_fault_tree lowered = base;
  fault_tree& ft = lowered.structure();
  ft.set_probability(ft.find("DG1_FTS"), 8e-4);
  ft.set_probability(ft.find("CST"), 1e-7);
  analysis_options request = envelope_opts;
  request.horizon = 30.0;
  const analysis_result warm = engine.run(lowered, request);
  EXPECT_EQ(warm.stats.struct_cache_hits, 1u);
  EXPECT_EQ(warm.stats.trigger_set_misses, 0u);
  EXPECT_GT(warm.stats.trigger_set_hits, 0u);

  analysis_engine cold(request);
  const analysis_result fresh = cold.run(lowered);
  EXPECT_GT(fresh.stats.trigger_set_misses, 0u);
  EXPECT_EQ(warm.failure_probability, fresh.failure_probability);
  EXPECT_EQ(cutset_list(warm), cutset_list(fresh));
  EXPECT_EQ(cutset_probabilities(warm), cutset_probabilities(fresh));
}

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// FNV-1a over the "%a\n" forms of the cutset probabilities in list
/// order: pins every probability and the order, in platform-independent
/// text.
std::uint64_t probability_digest(const analysis_result& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& q : result.cutsets) {
    for (char c : hex(q.probability) + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// serve_whatif's model: bench-size industrial model 1 with every
/// fail-in-operation event dynamic (one Erlang phase), ranked by
/// Fussell-Vesely importance on a static run at the paper's cutoff.
sd_fault_tree serve_whatif_model() {
  annotation_options an;
  an.dynamic_fraction = 1.0;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  an.phases = 1;
  return testing::annotated_study(
      generate_industrial(bench::model1_options(false)), 1e-15, an);
}

TEST(StructureCache, PinnedStage3ResultsAcrossFtcPlans) {
  // Exact stage-3 results of the serve pattern, pinned as hexfloats. How
  // FT_C is planned, keyed and materialised must not move a probability
  // or a quantification-cache hit/miss count (equal counts mean equal
  // cache keys).
  struct pinned {
    double horizon;
    const char* probability;
    std::size_t cutsets;
    std::uint64_t digest;
    std::size_t cache_hits;
    std::size_t cache_misses;
  };
  const auto expect_pinned = [](const analysis_result& r, const pinned& p) {
    EXPECT_EQ(hex(r.failure_probability), p.probability) << p.horizon;
    EXPECT_EQ(r.cutsets.size(), p.cutsets) << p.horizon;
    EXPECT_EQ(probability_digest(r), p.digest) << p.horizon;
    EXPECT_EQ(r.stats.cache_hits, p.cache_hits) << p.horizon;
    EXPECT_EQ(r.stats.cache_misses, p.cache_misses) << p.horizon;
  };

  // BWR: prime at 48 h, one run there, then warm runs at 30 h and 48 h
  // with the overrides of WarmRunSolvesNoTriggerSets.
  analysis_options envelope_opts;
  envelope_opts.horizon = 48.0;
  envelope_opts.cutoff = 1e-12;
  envelope_opts.threads = 1;
  const sd_fault_tree base = bwr_tree();
  analysis_engine engine(envelope_opts);
  engine.prime(base);
  (void)engine.run(base);
  sd_fault_tree lowered = base;
  fault_tree& ft = lowered.structure();
  ft.set_probability(ft.find("DG1_FTS"), 8e-4);
  ft.set_probability(ft.find("CST"), 1e-7);
  const std::vector<pinned> bwr_expected = {
      {30, "0x1.93f49a9a7a50dp-22", 1544, 0x40eb9f711952cb1cULL, 1113, 26},
      {48, "0x1.4ac3c4a40be2dp-21", 1862, 0x92b5f87895ea726dULL, 1457, 0},
  };
  for (const pinned& p : bwr_expected) {
    analysis_options request = envelope_opts;
    request.horizon = p.horizon;
    const analysis_result r = engine.run(lowered, request);
    expect_pinned(r, p);
    // Warm: every plan and trigger set comes from the entry's memos.
    EXPECT_EQ(r.stats.ftc_plan_misses, 0u) << p.horizon;
    EXPECT_EQ(r.stats.trigger_set_misses, 0u) << p.horizon;
  }

  // serve_whatif's model through one engine, horizons in request order.
  const sd_fault_tree serve = serve_whatif_model();
  analysis_options serve_opts;
  serve_opts.cutoff = 1e-15;
  serve_opts.threads = 1;
  analysis_engine service(serve_opts);
  const std::vector<pinned> serve_expected = {
      {12, "0x1.b9071881e48d7p-26", 2114, 0x74b0e1968f32196eULL, 1021, 127},
      {30, "0x1.ef3469b5c9f2fp-26", 3881, 0x3cf084bf7c329c81ULL, 2510, 405},
      {48, "0x1.13a0e07de43a4p-25", 6039, 0x148d0c9f24ce0441ULL, 4274, 799},
  };
  for (const pinned& p : serve_expected) {
    analysis_options request = serve_opts;
    request.horizon = p.horizon;
    expect_pinned(service.run(serve, request), p);
  }
}

/// `first` and `second` differ only in static probabilities and rates.
/// One engine runs both at cutoff 0: the second run replays every FT_C
/// plan and trigger set from the first run's memos and still equals a
/// fresh engine; and, cutset by cutset, the FT_C plan of `second` built
/// through a trigger-set memo filled from `first` equals a fresh plan.
void expect_trigger_sets_shared(const sd_fault_tree& first,
                                const sd_fault_tree& second) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 0.0;
  ASSERT_EQ(structural_signature(first, opts.prep),
            structural_signature(second, opts.prep));

  analysis_engine engine(opts);
  const analysis_result a = engine.run(first);
  EXPECT_GT(a.stats.trigger_set_misses, 0u);
  const analysis_result b = engine.run(second);
  EXPECT_EQ(b.stats.struct_cache_hits, 1u);
  EXPECT_EQ(b.stats.trigger_set_misses, 0u);
  EXPECT_EQ(b.stats.trigger_set_hits,
            a.stats.trigger_set_hits + a.stats.trigger_set_misses);
  // Every FT_C plan of the first run serves the second, whose rates and
  // static probabilities differ: plans hold no parameter.
  EXPECT_EQ(a.stats.ftc_plan_misses, a.stats.dynamic_cutsets);
  EXPECT_EQ(b.stats.ftc_plan_misses, 0u);
  EXPECT_EQ(b.stats.ftc_plan_hits, b.stats.dynamic_cutsets);
  EXPECT_GT(b.stats.dynamic_cutsets, 0u);

  analysis_engine cold(opts);
  const analysis_result fresh = cold.run(second);
  EXPECT_EQ(b.failure_probability, fresh.failure_probability);
  EXPECT_EQ(cutset_probabilities(b), cutset_probabilities(fresh));

  trigger_set_memo memo;
  for (const auto& q : a.cutsets) {
    if (q.dynamic) (void)build_ftc_plan(first, q.events, opts.mode, &memo);
  }
  const std::size_t filled = memo.size();
  ASSERT_GT(filled, 0u);
  for (const auto& q : fresh.cutsets) {
    if (!q.dynamic) continue;
    std::size_t solved = 0;
    const ftc_plan shared =
        build_ftc_plan(second, q.events, opts.mode, &memo, &solved);
    EXPECT_EQ(solved, 0u);
    EXPECT_EQ(ftc_signature(shared, second),
              ftc_signature(build_ftc_plan(second, q.events, opts.mode),
                            second));
  }
  EXPECT_EQ(memo.size(), filled);
}

TEST(StructureCache, TriggerSetsIgnoreProbabilities) {
  // Trigger sets are solved without a cutoff, so trees that differ only
  // in parameters share memo entries. Were a probability-dependent cutoff
  // to enter model_trigger_of, the guarded trains' second tree (guards at
  // 1e-30) would lose its guarded trigger sets and differ from the first
  // tree's.
  bwr_options other;
  other.dynamic_events = true;
  other.repair_rate = 0.5;
  sd_fault_tree bwr_rescaled = make_bwr_model(with_bwr_triggers(other, 2));
  fault_tree& ft = bwr_rescaled.structure();
  for (node_index e : bwr_rescaled.static_events()) {
    ft.set_probability(e, 1e-3 * ft.node(e).probability);
  }
  expect_trigger_sets_shared(bwr_tree(), bwr_rescaled);
  expect_trigger_sets_shared(guarded_trains_sd(2, 0.05, 1.0),
                             guarded_trains_sd(2, 1e-30, 3.0));
}

TEST(StructureCache, ExactStaticOnHitMatchesFreshEngine) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.exact_static = true;
  const sd_fault_tree base = example3_sd();
  analysis_engine warm(opts);
  const analysis_result first = warm.run(base);
  ASSERT_GT(first.exact_static_probability, 0.0);

  sd_fault_tree perturbed = base;
  perturbed.structure().set_probability(perturbed.structure().find("a"),
                                        1e-4);
  const analysis_result hit = warm.run(perturbed);
  EXPECT_EQ(hit.stats.struct_cache_hits, 1u);

  analysis_engine cold(opts);
  const analysis_result fresh = cold.run(perturbed);
  EXPECT_EQ(hit.exact_static_probability, fresh.exact_static_probability);
  EXPECT_EQ(hit.failure_probability, fresh.failure_probability);
}

TEST(StructureCache, LruEvictionBound) {
  analysis_options opts;
  opts.structure_cache_entries = 1;
  analysis_engine engine(opts);
  const sd_fault_tree first = example3_sd();
  const sd_fault_tree second = bwr_tree();

  (void)engine.run(first);
  (void)engine.run(second);  // evicts `first`
  EXPECT_EQ(engine.structures().size(), 1u);
  EXPECT_EQ(engine.structures().evictions(), 1u);

  const analysis_result refill = engine.run(first);  // miss again
  EXPECT_EQ(refill.stats.struct_cache_hits, 0u);
  EXPECT_EQ(engine.structures().evictions(), 2u);
  EXPECT_EQ(refill.failure_probability,
            analyze(first, engine.options()).failure_probability);
}

TEST(LruMap, InsertFindEvict) {
  lru_map<std::string, int> map(2);
  EXPECT_TRUE(map.insert("a", 1));
  EXPECT_TRUE(map.insert("b", 2));
  ASSERT_NE(map.find("a"), nullptr);  // refreshes a's recency
  EXPECT_EQ(*map.find("a"), 1);
  EXPECT_TRUE(map.insert("c", 3));  // evicts b (least recent)
  EXPECT_EQ(map.find("b"), nullptr);
  EXPECT_NE(map.find("a"), nullptr);
  EXPECT_NE(map.find("c"), nullptr);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 1u);
  // Duplicate insert keeps the first value (first writer wins).
  EXPECT_FALSE(map.insert("a", 99));
  EXPECT_EQ(*map.find("a"), 1);
  // assign() overwrites.
  map.assign("a", 7);
  EXPECT_EQ(*map.find("a"), 7);
  // Shrinking the capacity evicts immediately.
  map.set_capacity(1);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.evictions(), 2u);
}

TEST(QuantCache, LruBoundHolds) {
  analysis_options opts;
  opts.horizon = 24.0;
  opts.quant_cache_entries = 2;
  const sd_fault_tree tree = bwr_tree();
  analysis_engine engine(opts);
  const analysis_result r = engine.run(tree);
  EXPECT_LE(engine.cache().size(), 2u);
  if (r.stats.cache_misses > 2) {
    EXPECT_GT(engine.cache().evictions(), 0u);
    EXPECT_EQ(r.stats.cache_evictions, engine.cache().evictions());
  }
  // Eviction can only cost re-solves, never change results.
  analysis_options unbounded = opts;
  unbounded.quant_cache_entries = quantification_cache::default_capacity;
  EXPECT_EQ(r.failure_probability,
            analyze(tree, unbounded).failure_probability);
}

TEST(StructureCacheConcurrent, ParallelRunsShareOneEngine) {
  // TSan target: many threads run perturbed analyses against one engine;
  // all share one cached structure — and, the model being triggered, its
  // trigger-set memo, which priming leaves empty so the first rounds race
  // to fill it — and every result must equal the fresh-engine reference
  // for its parameter point.
  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-12;
  opts.inline_execution = true;  // each thread runs its pipeline inline
  const sd_fault_tree base = bwr_tree();
  const node_index knob = base.structure().find("DG1_FTS");
  const double knob_base = base.structure().node(knob).probability;
  analysis_engine engine(opts);
  engine.prime(base);

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  constexpr int kPoints = 5;
  // Lowered below the primed point, so every run reuses the entry.
  const auto perturbed = [&](int point) {
    sd_fault_tree tree = base;
    tree.structure().set_probability(knob, knob_base / (1 + point));
    return tree;
  };
  std::vector<double> results(kThreads * kRounds, -1.0);
  std::atomic<std::size_t> struct_hits{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const analysis_result r = engine.run(perturbed((t + round) % kPoints));
        results[static_cast<std::size_t>(t * kRounds + round)] =
            r.failure_probability;
        struct_hits += r.stats.struct_cache_hits;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(struct_hits.load(), std::size_t{kThreads * kRounds});

  analysis_options serial = opts;
  serial.inline_execution = false;
  std::vector<double> reference;
  for (int point = 0; point < kPoints; ++point) {
    reference.push_back(analyze(perturbed(point), serial).failure_probability);
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(results[static_cast<std::size_t>(t * kRounds + round)],
                reference[static_cast<std::size_t>((t + round) % kPoints)])
          << "thread " << t << " round " << round;
    }
  }
}

TEST(StructureCacheConcurrent, MixedStructuresUnderTinyCapacity) {
  // Eviction racing against concurrent hits: two distinct structures
  // thrash a capacity-1 cache from many threads. Entries are shared_ptr,
  // so a run keeps quantifying against an entry evicted mid-flight.
  analysis_options opts;
  opts.horizon = 12.0;
  opts.structure_cache_entries = 1;
  opts.inline_execution = true;
  const sd_fault_tree first = example3_sd();
  const sd_fault_tree second = bwr_tree();
  analysis_engine engine(opts);

  const double ref_first = analyze(first, opts).failure_probability;
  const double ref_second = analyze(second, opts).failure_probability;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        const bool use_first = (t + round) % 2 == 0;
        const double p =
            engine.run(use_first ? first : second).failure_probability;
        if (p != (use_first ? ref_first : ref_second)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(engine.structures().size(), 1u);
  EXPECT_GT(engine.structures().evictions(), 0u);
}

}  // namespace
}  // namespace sdft
