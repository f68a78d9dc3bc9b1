#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "engine/engine.hpp"
#include "ft/parser.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/importance.hpp"
#include "mcs/mocus.hpp"
#include "sdft/classify.hpp"
#include "sdft/translate.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

TEST(Bwr, StaticModelShape) {
  const sd_fault_tree tree = make_bwr_model({});
  EXPECT_TRUE(tree.dynamic_events().empty());
  EXPECT_GT(tree.structure().num_basic_events(), 40u);
  EXPECT_GT(tree.structure().num_gates(), 30u);
  const auto mcs = mocus(tree.structure());
  EXPECT_GT(mcs.cutsets.size(), 100u);
}

TEST(Bwr, DynamicVariantHasSameStructure) {
  bwr_options opts;
  opts.dynamic_events = true;
  opts.repair_rate = 0.01;
  const sd_fault_tree dyn = make_bwr_model(opts);
  const sd_fault_tree stat = make_bwr_model({});
  EXPECT_EQ(dyn.structure().size(), stat.structure().size());
  // Pumps (10), diesels (2) and FEED&BLEED (1) are dynamic.
  EXPECT_EQ(dyn.dynamic_events().size(), 13u);
  EXPECT_TRUE(dyn.triggered_events(dyn.structure().find("ECC_T1_F")).empty());
}

TEST(Bwr, TriggerSwitchesWireTrains) {
  bwr_options opts;
  opts.dynamic_events = true;
  opts = with_bwr_triggers(opts, bwr_num_triggers);  // all six triggers
  const sd_fault_tree tree = make_bwr_model(opts);
  const auto& ft = tree.structure();
  // Every system's second-train FIO is triggered by the first train.
  for (const char* sys : {"ECC", "EFW", "RHR", "SWS", "CCW"}) {
    const node_index fio = ft.find(std::string(sys) + "_T2_FIO");
    ASSERT_NE(fio, fault_tree::npos) << sys;
    EXPECT_EQ(tree.trigger_gate_of(fio),
              ft.find(std::string(sys) + "_T1_F"))
        << sys;
  }
  EXPECT_EQ(tree.trigger_gate_of(ft.find("FB_FIO")), ft.find("RHR_F"));
  tree.validate();
}

TEST(Bwr, TriggerClassesMatchPaperSetup) {
  bwr_options opts;
  opts.dynamic_events = true;
  opts = with_bwr_triggers(opts, bwr_num_triggers);
  const sd_fault_tree tree = make_bwr_model(opts);
  const auto& ft = tree.structure();
  // Train gates of ECC (with support systems beneath) have static joins
  // but not static branching: several dynamic inputs under one OR.
  const node_index ecc_t1 = ft.find("ECC_T1_F");
  EXPECT_FALSE(has_static_branching(tree, ecc_t1));
  EXPECT_TRUE(has_static_joins(tree, ecc_t1));
  // The FEED&BLEED trigger (whole RHR system) has static branching.
  EXPECT_TRUE(has_static_branching(tree, ft.find("RHR_F")));
}

TEST(Bwr, CumulativeTriggerCountMatches) {
  for (int count = 0; count <= bwr_num_triggers; ++count) {
    bwr_options opts;
    opts.dynamic_events = true;
    opts = with_bwr_triggers(opts, count);
    const sd_fault_tree tree = make_bwr_model(opts);
    std::size_t triggered = 0;
    for (node_index e : tree.dynamic_events()) {
      if (tree.trigger_gate_of(e) != fault_tree::npos) ++triggered;
    }
    EXPECT_EQ(triggered, static_cast<std::size_t>(count));
  }
}

TEST(Bwr, StaticAndWorstCaseDynamicAgree) {
  // With no repairs and no triggers, the FT-bar of the dynamic model must
  // carry exactly the static model's probabilities (1 - e^{-lambda t}).
  bwr_options opts;
  opts.dynamic_events = true;
  opts.repair_rate = 0.0;
  const sd_fault_tree dyn = make_bwr_model(opts);
  const sd_fault_tree stat = make_bwr_model({});
  const static_translation tr = translate_to_static(dyn, opts.horizon);
  for (node_index e : dyn.dynamic_events()) {
    const node_index same = stat.structure().find(
        dyn.structure().node(e).name);
    ASSERT_NE(same, fault_tree::npos);
    EXPECT_NEAR(tr.worst_case.at(e),
                stat.structure().node(same).probability, 1e-10)
        << dyn.structure().node(e).name;
  }
}

TEST(Bwr, RejectsBadOptions) {
  bwr_options opts;
  opts.phases = 0;
  EXPECT_THROW(make_bwr_model(opts), model_error);
  EXPECT_THROW(with_bwr_triggers({}, 7), model_error);
}

TEST(Industrial, DeterministicForSeed) {
  industrial_options opts;
  opts.seed = 7;
  const industrial_model m1 = generate_industrial(opts);
  const industrial_model m2 = generate_industrial(opts);
  EXPECT_EQ(m1.ft.size(), m2.ft.size());
  EXPECT_EQ(m1.fio_events, m2.fio_events);
  EXPECT_EQ(write_fault_tree(m1.ft), write_fault_tree(m2.ft));
  opts.seed = 8;
  const industrial_model m3 = generate_industrial(opts);
  EXPECT_NE(write_fault_tree(m1.ft), write_fault_tree(m3.ft));
}

TEST(Industrial, ShapeScalesWithOptions) {
  industrial_options small;
  small.num_frontline_systems = 6;
  small.num_initiating_events = 4;
  small.sequences_per_ie = 3;
  const industrial_model m = generate_industrial(small);
  m.ft.validate();
  EXPECT_GT(m.ft.num_basic_events(), 50u);
  EXPECT_GT(m.ft.num_gates(), m.ft.num_basic_events());
  EXPECT_FALSE(m.fio_events.empty());
  for (node_index e : m.fio_events) {
    EXPECT_TRUE(m.ft.is_basic(e));
    EXPECT_GT(m.fio_rate.at(e), 0.0);
    EXPECT_TRUE(m.component_gate.count(e));
  }
}

TEST(Industrial, RedundancyGroupsSpanTrains) {
  industrial_options opts;
  opts.num_frontline_systems = 6;
  opts.num_initiating_events = 4;
  opts.sequences_per_ie = 3;
  const industrial_model m = generate_industrial(opts);
  std::unordered_map<int, int> group_sizes;
  for (node_index e : m.fio_events) ++group_sizes[m.redundancy_group.at(e)];
  // Systems have at least two trains, so every group that exists has at
  // least two symmetric members.
  int multi = 0;
  for (const auto& [group, size] : group_sizes) {
    EXPECT_GE(size, 2) << "group " << group;
    multi += size >= 2;
  }
  EXPECT_GT(multi, 0);
}

class IndustrialAnnotated : public ::testing::Test {
 protected:
  IndustrialAnnotated() {
    industrial_options opts;
    opts.num_frontline_systems = 8;
    opts.num_support_systems = 3;
    opts.num_initiating_events = 5;
    opts.sequences_per_ie = 4;
    opts.seed = 11;
    model_ = generate_industrial(opts);
    mocus_options mopts;
    mopts.cutoff = 1e-15;
    cutsets_ = mocus(model_.ft, mopts).cutsets;
    ranked_ = rank_by_fussell_vesely(model_.ft, cutsets_);
  }

  industrial_model model_;
  std::vector<cutset> cutsets_;
  std::vector<node_index> ranked_;
};

TEST_F(IndustrialAnnotated, FractionControlsDynamicCount) {
  annotation_options a;
  a.dynamic_fraction = 0.25;
  a.trigger_fraction = 0.0;
  const sd_fault_tree tree = annotate_dynamic(model_, ranked_, a);
  const auto expected = static_cast<std::size_t>(
      std::llround(0.25 * static_cast<double>(model_.fio_events.size())));
  EXPECT_EQ(tree.dynamic_events().size(), expected);
}

TEST_F(IndustrialAnnotated, SelectsHighestImportanceEvents) {
  annotation_options a;
  a.dynamic_fraction = 0.2;
  a.trigger_fraction = 0.0;
  const sd_fault_tree tree = annotate_dynamic(model_, ranked_, a);
  // The selected events must be a prefix of the FIO-filtered ranking.
  const std::vector<node_index> dynamic_events = tree.dynamic_events();
  const std::unordered_set<node_index> dynamic(dynamic_events.begin(),
                                               dynamic_events.end());
  std::size_t seen = 0;
  for (node_index b : ranked_) {
    if (!model_.fio_rate.count(b)) continue;
    if (seen < dynamic.size()) {
      EXPECT_TRUE(dynamic.count(b)) << "rank position " << seen;
    }
    if (++seen >= dynamic.size()) break;
  }
}

TEST_F(IndustrialAnnotated, TriggerChainsStayInsideGroups) {
  annotation_options a;
  a.dynamic_fraction = 0.5;
  a.trigger_fraction = 0.3;
  const sd_fault_tree tree = annotate_dynamic(model_, ranked_, a);
  tree.validate();
  std::size_t triggered = 0;
  for (node_index e : tree.dynamic_events()) {
    const node_index g = tree.trigger_gate_of(e);
    if (g == fault_tree::npos) continue;
    ++triggered;
    // The trigger source is the component gate of a same-group event.
    bool found = false;
    for (node_index other : tree.dynamic_events()) {
      if (other != e && model_.component_gate.count(other) &&
          model_.component_gate.at(other) == g) {
        EXPECT_EQ(model_.redundancy_group.at(other),
                  model_.redundancy_group.at(e));
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_GT(triggered, 0u);
  // Chained triggers have static branching (component gate = OR of one
  // static FTS and one dynamic FIO).
  const trigger_report report = analyze_triggers(tree);
  for (const auto& entry : report.gates) {
    EXPECT_EQ(entry.cls, trigger_class::static_branching);
  }
  EXPECT_TRUE(report.efficient);
}

TEST_F(IndustrialAnnotated, PipelineRunsEndToEnd) {
  annotation_options a;
  a.dynamic_fraction = 0.3;
  a.trigger_fraction = 0.1;
  const sd_fault_tree tree = annotate_dynamic(model_, ranked_, a);
  analysis_options opts;
  opts.cutoff = 1e-15;
  opts.threads = 4;
  const analysis_result result = analyze(tree, opts);
  EXPECT_GT(result.num_cutsets, 0u);
  EXPECT_GT(result.num_dynamic_cutsets, 0u);
  EXPECT_GT(result.failure_probability, 0.0);
  EXPECT_LT(result.failure_probability, 1.0);
  for (const auto& q : result.cutsets) EXPECT_TRUE(q.error.empty()) << q.error;
}

}  // namespace
}  // namespace sdft
