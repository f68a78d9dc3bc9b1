#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "gen/bwr.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"

namespace sdft {
namespace {

// Every test both enables recording and restores the disabled default, so
// the order of tests within this binary does not matter.
struct obs_session {
  obs_session() {
    obs::set_enabled(true);
    obs::trace_recorder::instance().clear();
    obs::metrics_registry::global().reset();
  }
  ~obs_session() { obs::set_enabled(false); }
};

std::vector<obs::span_record> spans_named(
    const std::vector<obs::span_record>& all, const char* name) {
  std::vector<obs::span_record> out;
  for (const auto& s : all) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s);
  }
  return out;
}

TEST(ObsSpans, NestedSpansLinkToEnclosingSpan) {
  const obs_session session;
  {
    obs::span_scope outer("outer", "test");
    obs::span_scope inner("inner", "test");
    obs::span_scope leaf("leaf", "test");
    EXPECT_TRUE(outer.active());
    EXPECT_NE(outer.id(), 0u);
  }
  const auto spans = obs::trace_recorder::instance().snapshot();
  ASSERT_EQ(spans.size(), 3u);

  const auto outer = spans_named(spans, "outer").at(0);
  const auto inner = spans_named(spans, "inner").at(0);
  const auto leaf = spans_named(spans, "leaf").at(0);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(leaf.parent, inner.id);

  std::set<std::uint64_t> ids;
  for (const auto& s : spans) {
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id";
    EXPECT_GE(s.duration_ns, 0u);
  }
  // Enclosing spans close last, so they last at least as long as children.
  EXPECT_GE(outer.duration_ns, inner.duration_ns);
  EXPECT_GE(inner.duration_ns, leaf.duration_ns);
}

TEST(ObsSpans, SiblingSpansShareOneParent) {
  const obs_session session;
  {
    obs::span_scope parent("parent", "test");
    { obs::span_scope a("a", "test"); }
    { obs::span_scope b("b", "test"); }
  }
  const auto spans = obs::trace_recorder::instance().snapshot();
  const auto parent = spans_named(spans, "parent").at(0);
  EXPECT_EQ(spans_named(spans, "a").at(0).parent, parent.id);
  EXPECT_EQ(spans_named(spans, "b").at(0).parent, parent.id);
}

TEST(ObsSpans, AmbientParentAdoptsSpansOnOtherThreads) {
  const obs_session session;
  std::uint64_t stage_id = 0;
  {
    obs::span_scope stage("stage", "test");
    stage_id = stage.id();
    const obs::ambient_parent_scope ambient(stage.id());
    std::thread worker([] {
      obs::set_thread_label("obs-test-worker");
      obs::span_scope task("task", "test");
    });
    worker.join();
  }
  const auto spans = obs::trace_recorder::instance().snapshot();
  const auto task = spans_named(spans, "task").at(0);
  const auto stage = spans_named(spans, "stage").at(0);
  EXPECT_EQ(task.parent, stage_id);
  EXPECT_NE(task.tid, stage.tid);

  const auto labels = obs::trace_recorder::instance().thread_labels();
  const bool labelled =
      std::any_of(labels.begin(), labels.end(), [&](const auto& kv) {
        return kv.first == task.tid && kv.second == "obs-test-worker";
      });
  EXPECT_TRUE(labelled);
}

TEST(ObsSpans, DisabledRecordingKeepsBufferEmpty) {
  const obs_session session;
  obs::set_enabled(false);
  {
    obs::span_scope span("invisible", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_EQ(obs::trace_recorder::instance().size(), 0u);
}

TEST(ObsSpans, ArgsAreCappedAtCapacity) {
  const obs_session session;
  {
    obs::span_scope span("saturated", "test");
    for (int i = 0; i < 10; ++i) span.arg("k", static_cast<double>(i));
  }
  const auto spans = obs::trace_recorder::instance().snapshot();
  EXPECT_EQ(spans.at(0).args.count, obs::span_args::capacity);
}

TEST(ObsSpans, ChromeJsonExportParsesAndCarriesSpanIds) {
  const obs_session session;
  {
    obs::span_scope outer("outer", "test");
    outer.arg("cutsets", 42.0);
    obs::span_scope inner("inner", "test");
  }
  std::ostringstream out;
  obs::trace_recorder::instance().write_chrome_json(out);

  const json::value doc = json::parse(out.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  std::size_t complete = 0;
  double outer_id = 0.0;
  for (const auto& e : events) {
    if (e.at("ph").as_string() != "X") continue;
    ++complete;
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    if (e.at("name").as_string() == "outer") {
      outer_id = e.at("args").at("span_id").as_number();
      EXPECT_EQ(e.at("args").at("cutsets").as_number(), 42.0);
    }
  }
  EXPECT_EQ(complete, 2u);
  for (const auto& e : events) {
    if (e.at("ph").as_string() == "X" && e.at("name").as_string() == "inner") {
      EXPECT_EQ(e.at("args").at("parent_id").as_number(), outer_id);
    }
  }
}

TEST(ObsMetrics, CountersGaugesAndHistograms) {
  obs::metrics_registry registry;
  obs::counter& c = registry.get_counter("test.count");
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4u);
  // Lookup is stable: the same name resolves to the same instrument.
  EXPECT_EQ(&registry.get_counter("test.count"), &c);

  registry.set_gauge("test.gauge", 0.75);
  EXPECT_DOUBLE_EQ(registry.get_gauge("test.gauge").value(), 0.75);

  obs::histogram& h = registry.get_histogram("test.hist");
  h.observe(1.0);
  h.observe(3.0);
  h.observe(8.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);

  registry.set_label("test.label", "mocus");
  EXPECT_EQ(registry.label("test.label"), "mocus");

  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(registry.label("test.label"), "");
}

TEST(ObsMetrics, JsonDumpRoundTripsThroughParser) {
  obs::metrics_registry registry;
  registry.get_counter("a.count").add(7);
  registry.set_gauge("b.gauge", 2.5);
  registry.get_histogram("c.hist").observe(4.0);
  registry.set_label("d.label", "bdd");

  const json::value doc = json::parse(registry.to_json());
  EXPECT_EQ(doc.at("a.count").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("b.gauge").as_number(), 2.5);
  EXPECT_EQ(doc.at("c.hist").at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.at("c.hist").at("mean").as_number(), 4.0);
  EXPECT_EQ(doc.at("d.label").as_string(), "bdd");
}

analysis_result run_bwr(std::size_t threads) {
  bwr_options bopt;
  bopt.dynamic_events = true;
  bopt = with_bwr_triggers(bopt, 2);
  analysis_options aopt;
  aopt.cutoff = 1e-10;
  aopt.threads = threads;
  return analyze(make_bwr_model(bopt), aopt);
}

TEST(ObsEngine, BwrRunEmitsOneSpanPerStageWithMatchingParents) {
  const obs_session session;
  const analysis_result result = run_bwr(8);
  ASSERT_GT(result.num_cutsets, 0u);

  const auto spans = obs::trace_recorder::instance().snapshot();
  const auto runs = spans_named(spans, "engine.run");
  ASSERT_EQ(runs.size(), 1u);
  for (const char* stage : {"engine.translate", "engine.generate",
                            "engine.quantify", "engine.sum"}) {
    const auto matches = spans_named(spans, stage);
    ASSERT_EQ(matches.size(), 1u) << stage;
    EXPECT_EQ(matches.at(0).parent, runs.at(0).id) << stage;
    EXPECT_GE(matches.at(0).duration_ns, 0u) << stage;
    EXPECT_LE(matches.at(0).duration_ns, runs.at(0).duration_ns) << stage;
  }
  // Pool-side spans attach below the stages, never float as roots.
  for (const char* worker_span : {"mocus.task", "quant.mcs"}) {
    for (const auto& s : spans_named(spans, worker_span)) {
      EXPECT_NE(s.parent, 0u) << worker_span;
    }
  }
  EXPECT_FALSE(spans_named(spans, "quant.mcs").empty());
  // A cutset that misses the quantification cache shows where its time
  // went: product-chain exploration and uniformisation, each a child of
  // its quant.mcs span.
  std::set<std::uint64_t> mcs_ids;
  for (const auto& s : spans_named(spans, "quant.mcs")) mcs_ids.insert(s.id);
  for (const char* child : {"quant.explore", "quant.uniformise"}) {
    const auto matches = spans_named(spans, child);
    EXPECT_FALSE(matches.empty()) << child;
    for (const auto& s : matches) {
      EXPECT_TRUE(mcs_ids.contains(s.parent)) << child;
    }
  }
}

TEST(ObsEngine, PublishCoversEveryEngineStatsMetric) {
  const obs_session session;
  const analysis_result result = run_bwr(4);
  const auto names = obs::metrics_registry::global().names();
  for (const auto& [name, value] : result.stats.metrics()) {
    (void)value;
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << "metric '" << name << "' not published";
  }
  EXPECT_EQ(obs::metrics_registry::global().label("engine.backend"), "mocus");
  EXPECT_EQ(obs::metrics_registry::global()
                .get_counter("engine.cutsets")
                .value(),
            result.num_cutsets);
}

// Every engine_stats field by type, written out here independently of the
// header so the tests below pin the vocabulary instead of restating it.
using count_field = std::size_t engine_stats::*;
using gauge_field = double engine_stats::*;
using label_field = std::string engine_stats::*;

const std::vector<count_field> kCountFields = {
    &engine_stats::prep_nodes_before, &engine_stats::prep_nodes_after,
    &engine_stats::prep_nodes_eliminated, &engine_stats::prep_atleast_lowered,
    &engine_stats::prep_constants_folded, &engine_stats::prep_gates_coalesced,
    &engine_stats::prep_duplicates_merged,
    &engine_stats::prep_common_args_merged, &engine_stats::prep_absorptions,
    &engine_stats::prep_passes, &engine_stats::prep_modules,
    &engine_stats::prep_module_cutsets, &engine_stats::num_cutsets,
    &engine_stats::source_partials, &engine_stats::source_discarded,
    &engine_stats::lookahead_pruned,
    &engine_stats::subset_tests, &engine_stats::bitset_words,
    &engine_stats::bdd_nodes,
    &engine_stats::static_cutsets, &engine_stats::dynamic_cutsets,
    &engine_stats::failed_quantifications, &engine_stats::lumped_orbits,
    &engine_stats::lumped_cutsets, &engine_stats::packed_key_chains,
    &engine_stats::vector_key_chains,
    &engine_stats::uniformisation_steps_saved,
    &engine_stats::trigger_set_hits, &engine_stats::trigger_set_misses,
    &engine_stats::ftc_plan_hits, &engine_stats::ftc_plan_misses,
    &engine_stats::cache_hits, &engine_stats::cache_misses,
    &engine_stats::cache_chain_reuses, &engine_stats::cache_evictions, &engine_stats::cache_entries,
    &engine_stats::struct_cache_hits, &engine_stats::struct_cache_misses,
    &engine_stats::struct_cache_evictions,
    &engine_stats::struct_cache_entries, &engine_stats::pool_threads,
    &engine_stats::mocus_threads, &engine_stats::mocus_pool_work,
    &engine_stats::quantify_pool_work, &engine_stats::mc_trajectories,
    &engine_stats::mc_failures, &engine_stats::mc_levels,
    &engine_stats::mc_replications, &engine_stats::scenario_sequences,
    &engine_stats::scenario_end_states,
    &engine_stats::scenario_functional_events,
    &engine_stats::scenario_bdd_nodes, &engine_stats::scenario_plan_nodes,
    &engine_stats::scenario_gates_compiled,
    &engine_stats::scenario_prefix_hits,
    &engine_stats::scenario_sequence_cutsets,
    &engine_stats::scenario_cutset_prefixes,
    &engine_stats::scenario_cutset_candidates, &engine_stats::ccf_groups,
    &engine_stats::ccf_events_added, &engine_stats::ccf_members_expanded,
    &engine_stats::uq_samples, &engine_stats::uq_parameters,
};

const std::vector<gauge_field> kGaugeFields = {
    &engine_stats::translate_seconds, &engine_stats::prep_seconds,
    &engine_stats::generate_seconds, &engine_stats::quantify_seconds,
    &engine_stats::sum_seconds, &engine_stats::exact_static_seconds,
    &engine_stats::total_seconds, &engine_stats::mocus_occupancy,
    &engine_stats::quantify_occupancy, &engine_stats::mc_seconds,
    &engine_stats::mc_estimate, &engine_stats::mc_std_error,
    &engine_stats::mc_ci_half_width, &engine_stats::mc_relative_error,
    &engine_stats::scenario_compile_seconds,
    &engine_stats::scenario_quantify_seconds,
    &engine_stats::scenario_cutset_seconds,
    &engine_stats::scenario_total_seconds, &engine_stats::uq_seconds,
};

const std::vector<label_field> kLabelFields = {
    &engine_stats::backend, &engine_stats::mc_method};

/// Fills every field with a distinct non-zero value: counts get integers
/// `base + 7i`, gauges the same plus one half (so no gauge reads as an
/// integer), labels `tag` plus their index.
engine_stats filled_stats(std::size_t base, const std::string& tag) {
  engine_stats s;
  for (std::size_t i = 0; i < kCountFields.size(); ++i) {
    s.*kCountFields[i] = base + 7 * i;
  }
  for (std::size_t i = 0; i < kGaugeFields.size(); ++i) {
    s.*kGaugeFields[i] = static_cast<double>(base + 7 * i) + 0.5;
  }
  for (std::size_t i = 0; i < kLabelFields.size(); ++i) {
    s.*kLabelFields[i] = tag + std::to_string(i);
  }
  return s;
}

TEST(EngineStats, AccumulateFollowsDeclaredAggregation) {
  // The lists above cover every numeric field: metrics() publishes each
  // once plus the derived cache hit rate.
  ASSERT_EQ(kCountFields.size() + kGaugeFields.size() + 1,
            engine_stats{}.metrics().size());

  // Pointers to members have no ordering, so these are plain lists.
  const auto has = [](const auto& fields, auto f) {
    return std::find(fields.begin(), fields.end(), f) != fields.end();
  };
  const std::vector<count_field> max_counts = {
      &engine_stats::bitset_words, &engine_stats::pool_threads,
      &engine_stats::mocus_threads, &engine_stats::mc_levels,
      &engine_stats::mc_replications};
  const std::vector<gauge_field> max_gauges = {
      &engine_stats::mocus_occupancy, &engine_stats::quantify_occupancy};
  const std::vector<count_field> latest_counts = {
      &engine_stats::cache_entries, &engine_stats::struct_cache_entries};
  const std::vector<gauge_field> latest_gauges = {
      &engine_stats::mc_estimate, &engine_stats::mc_std_error,
      &engine_stats::mc_ci_half_width, &engine_stats::mc_relative_error};

  // `a` is below `b` in every field on the first pass and above it on the
  // second, so max, latest, sum and keep-first disagree on every field.
  const engine_stats b = filled_stats(1000, "b");
  for (const std::size_t base : {1u, 5000u}) {
    engine_stats a = filled_stats(base, "a");
    const engine_stats before = a;
    a.accumulate(b);
    for (const count_field f : kCountFields) {
      const std::size_t expected =
          has(max_counts, f)      ? std::max(before.*f, b.*f)
          : has(latest_counts, f) ? b.*f
                                        : before.*f + b.*f;
      EXPECT_EQ(a.*f, expected) << "count field #"
                                << (std::find(kCountFields.begin(),
                                              kCountFields.end(), f) -
                                    kCountFields.begin());
    }
    for (const gauge_field f : kGaugeFields) {
      const double expected =
          has(max_gauges, f)      ? std::max(before.*f, b.*f)
          : has(latest_gauges, f) ? b.*f
                                        : before.*f + b.*f;
      EXPECT_EQ(a.*f, expected) << "gauge field #"
                                << (std::find(kGaugeFields.begin(),
                                              kGaugeFields.end(), f) -
                                    kGaugeFields.begin());
    }
    for (const label_field f : kLabelFields) EXPECT_EQ(a.*f, b.*f);
  }
}

TEST(EngineStats, PublishedKindsFollowFieldTypes) {
  const engine_stats s = filled_stats(3, "x");
  obs::metrics_registry registry;
  s.publish(registry);
  const std::vector<std::string> published = registry.names();

  const auto metrics = s.metrics();
  std::set<std::string> unique;
  for (const auto& [name, value] : metrics) unique.insert(name);
  EXPECT_EQ(unique.size(), metrics.size()) << "duplicate metric name";
  // Each name registered under exactly one kind, plus the two labels.
  EXPECT_EQ(published.size(), metrics.size() + kLabelFields.size());

  // Field values are distinct, so each metric value identifies its field:
  // integral values come from count fields, the rest from gauge fields
  // (or the derived hit rate, a ratio below one).
  std::set<std::size_t> counts;
  std::set<double> gauges;
  for (const count_field f : kCountFields) counts.insert(s.*f);
  for (const gauge_field f : kGaugeFields) gauges.insert(s.*f);
  std::size_t seen_counts = 0;
  std::size_t seen_gauges = 0;
  for (const auto& [name, value] : metrics) {
    if (name == "quant.cache_hit_rate") {
      EXPECT_EQ(registry.get_gauge(name).value(), s.cache_hit_rate());
    } else if (counts.count(static_cast<std::size_t>(value)) != 0 &&
               value == std::floor(value)) {
      ++seen_counts;
      EXPECT_EQ(registry.get_counter(name).value(),
                static_cast<std::uint64_t>(value))
          << name;
    } else {
      ASSERT_EQ(gauges.count(value), 1u) << name;
      ++seen_gauges;
      EXPECT_EQ(registry.get_gauge(name).value(), value) << name;
    }
  }
  EXPECT_EQ(seen_counts, kCountFields.size());
  EXPECT_EQ(seen_gauges, kGaugeFields.size());
  // A lookup under the wrong kind would have registered a second
  // instrument of the same name.
  EXPECT_EQ(registry.names(), published);

  EXPECT_EQ(registry.label("engine.backend"), s.backend);
  EXPECT_EQ(registry.label("mc.method"), s.mc_method);
}

TEST(ObsEngine, TracingDoesNotPerturbDeterminism) {
  // Bit-exact across thread counts and across the tracing switch.
  const double p_serial_off = run_bwr(1).failure_probability;
  const obs_session session;
  const double p_traced_8 = run_bwr(8).failure_probability;
  obs::trace_recorder::instance().clear();
  const double p_traced_8_again = run_bwr(8).failure_probability;
  EXPECT_EQ(p_serial_off, p_traced_8);
  EXPECT_EQ(p_traced_8, p_traced_8_again);
}

}  // namespace
}  // namespace sdft
