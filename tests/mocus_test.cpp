#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "../bench/bench_common.hpp"
#include "ft/fault_tree.hpp"
#include "gen/bwr.hpp"
#include "gen/industrial.hpp"
#include "mcs/cutset.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdft {
namespace {

std::vector<cutset> named(const fault_tree& ft,
                          std::vector<std::vector<std::string>> names) {
  std::vector<cutset> out;
  for (auto& set : names) {
    cutset c;
    for (auto& n : set) c.push_back(ft.find(n));
    std::sort(c.begin(), c.end());
    out.push_back(std::move(c));
  }
  return minimize_cutsets(std::move(out));
}

TEST(Mocus, Example7MinimalCutsets) {
  const fault_tree ft = testing::example1_static();
  const auto result = mocus(ft);
  const auto expected =
      named(ft, {{"e"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}});
  EXPECT_EQ(result.cutsets, expected);
  EXPECT_TRUE(are_minimal_cutsets(ft, result.cutsets));
}

TEST(Mocus, MatchesBruteForceOnExample1) {
  const fault_tree ft = testing::example1_static();
  EXPECT_EQ(mocus(ft).cutsets, minimal_cutsets_brute_force(ft));
}

TEST(Mocus, CutoffDiscardsSmallCutsets) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.cutoff = 1e-5;  // keeps {e}? no: 3e-6 < 1e-5. keeps pairs? ~1e-5..9e-6
  const auto result = mocus(ft, opt);
  for (const auto& c : result.cutsets) {
    EXPECT_GE(cutset_probability(ft, c), opt.cutoff);
  }
  EXPECT_GT(result.cutoff_discarded, 0u);
  EXPECT_LT(result.cutsets.size(), 5u);
}

TEST(Mocus, MaxOrderLimitsCutsetSize) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.max_order = 1;
  const auto result = mocus(ft, opt);
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_EQ(ft.node(result.cutsets[0][0]).name, "e");
}

TEST(Mocus, SubsumptionOnSharedStructure) {
  // top = OR(x, AND(x, y)): {x} subsumes {x, y}.
  fault_tree ft;
  const node_index x = ft.add_basic_event("x", 0.1);
  const node_index y = ft.add_basic_event("y", 0.1);
  const node_index g = ft.add_gate("g", gate_type::and_gate, {x, y});
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {x, g}));
  const auto result = mocus(ft);
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_EQ(result.cutsets[0], cutset{x});
}

TEST(Mocus, AssumeFailedConditionsEventsAway) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.assume_failed = {ft.find("a")};
  const auto result = mocus(ft, opt);
  // With a certainly failed: {e}, {c}, {d} remain ({b,*} subsumed).
  const auto expected = named(ft, {{"e"}, {"c"}, {"d"}});
  EXPECT_EQ(result.cutsets, expected);
}

TEST(Mocus, AssumeWorkingPrunesBranches) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.assume_working = {ft.find("e"), ft.find("b"), ft.find("d")};
  const auto result = mocus(ft, opt);
  const auto expected = named(ft, {{"a", "c"}});
  EXPECT_EQ(result.cutsets, expected);
}

TEST(Mocus, EmptyCutsetWhenRootForcedFailed) {
  // Root = OR(a, b) with a assumed failed: the empty set is the only MCS.
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  const node_index b = ft.add_basic_event("b", 0.1);
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {a, b}));
  mocus_options opt;
  opt.assume_failed = {a};
  const auto result = mocus(ft, opt);
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_TRUE(result.cutsets[0].empty());
}

TEST(Mocus, NoCutsetsWhenRootCannotFail) {
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {a}));
  mocus_options opt;
  opt.assume_working = {a};
  EXPECT_TRUE(mocus(ft, opt).cutsets.empty());
}

TEST(Mocus, FromSubtreeRoot) {
  const fault_tree ft = testing::example1_static();
  const auto result = mocus_from(ft, ft.find("PUMP1"));
  const auto expected = named(ft, {{"a"}, {"b"}});
  EXPECT_EQ(result.cutsets, expected);
}

TEST(Mocus, FromBasicEventRoot) {
  const fault_tree ft = testing::example1_static();
  const auto result = mocus_from(ft, ft.find("a"));
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_EQ(result.cutsets[0], cutset{ft.find("a")});
}

TEST(Mocus, RejectsNegativeOrNonFiniteCutoff) {
  const fault_tree ft = testing::example1_static();
  for (double cutoff : {-1.0, -1e-300, std::nan(""), HUGE_VAL}) {
    mocus_options opt;
    opt.cutoff = cutoff;
    EXPECT_THROW(mocus(ft, opt), model_error) << cutoff;
    EXPECT_THROW(mocus_from(ft, ft.top(), opt), model_error) << cutoff;
  }
  mocus_options zero;
  zero.cutoff = 0.0;
  EXPECT_EQ(mocus(ft, zero).cutsets, mocus(ft).cutsets);
}

TEST(Mocus, PartialLimitThrows) {
  {
    const fault_tree ft = testing::example1_static();
    mocus_options opt;
    opt.max_partials = 2;
    EXPECT_THROW(mocus(ft, opt), numeric_error);
  }
  // The valve is one counter shared by the breadth-first phase and every
  // drain, so the total work decides whether it trips, at every thread
  // count: a limit at the total passes, one below it throws.
  const fault_tree ft = testing::shared_or_tree(0, 16, 12, 8);
  const std::size_t total = mocus(ft).partials_processed;
  thread_pool pool(4);
  for (thread_pool* p : {static_cast<thread_pool*>(nullptr), &pool}) {
    mocus_options opt;
    opt.pool = p;
    opt.max_partials = total;
    EXPECT_EQ(mocus(ft, opt).partials_processed, total);
    opt.max_partials = total - 1;
    EXPECT_THROW(mocus(ft, opt), numeric_error);
  }
}

TEST(Mocus, TinyDedupLimitStaysCorrectAndBounded) {
  // Regression for the dedup_limit clearing edge: a bare visited.clear()
  // also forgot the partials still awaiting expansion, so a shared subtree
  // could re-admit a live stack partial (in the worst case the seed) and
  // re-expand its whole region once per clear. The clear now re-primes the
  // visited set with the live stack keys, so arbitrarily small limits must
  // yield the identical cutset list with bounded duplicate work.
  fault_tree ft;  // AND of shared ORs: every pair path reaches shared partials
  std::vector<node_index> ors;
  std::vector<node_index> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(
        ft.add_basic_event("x" + std::to_string(i), 0.1 + 0.01 * i));
  }
  for (int g = 0; g < 3; ++g) {
    ors.push_back(ft.add_gate("or" + std::to_string(g), gate_type::or_gate,
                              {events[g], events[g + 1]}));
  }
  ft.set_top(ft.add_gate("top", gate_type::and_gate, ors));

  const mocus_result baseline = mocus(ft);
  ASSERT_GT(baseline.cutsets.size(), 0u);
  for (const std::size_t limit : {1, 2, 3, 8}) {
    mocus_options opt;
    opt.dedup_limit = limit;
    const mocus_result limited = mocus(ft, opt);
    EXPECT_EQ(limited.cutsets, baseline.cutsets) << "dedup_limit " << limit;
    // Clears may re-expand partials whose keys were forgotten, but never
    // re-admit live stack work: the blowup stays a small constant factor.
    EXPECT_LE(limited.partials_processed, 20 * baseline.partials_processed)
        << "dedup_limit " << limit;
  }

  // Same contract with the drains on a pool.
  thread_pool pool(4);
  mocus_options par;
  par.dedup_limit = 2;
  par.pool = &pool;
  const mocus_result parallel = mocus(ft, par);
  EXPECT_EQ(parallel.cutsets, baseline.cutsets);
}

TEST(Mocus, TinyDedupLimitOnRandomTrees) {
  // Random static trees plus DAG-heavy shared-OR trees, whose expansion
  // paths meet at the same partials, so the visited tables see real
  // duplicates. The wide shared-OR trees outgrow the breadth-first
  // frontier, so their drains run (on the pools, in parallel); the narrow
  // ones mostly finish inside the breadth-first phase. Every
  // dedup_limit and thread count must reproduce the brute-force cutsets,
  // and at each limit the counters must not depend on the thread count:
  // the frontier, and which partials each walk expands, never do.
  struct input {
    fault_tree ft;
    bool wide;
  };
  std::vector<input> inputs;
  for (const std::uint64_t seed : {2u, 9u, 17u}) {
    inputs.push_back(
        {testing::make_random_static_tree(seed, 9, 5).structure(), false});
  }
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    inputs.push_back({testing::shared_or_tree(seed), false});
  }
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    inputs.push_back({testing::shared_or_tree(seed, 16, 12, 8), true});
  }
  thread_pool pool2(2);
  thread_pool pool8(8);
  const mocus_options defaults;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const fault_tree& ft = inputs[i].ft;
    const std::vector<cutset> expected = minimal_cutsets_brute_force(ft);
    const mocus_result unbounded = mocus(ft);
    for (const std::size_t limit :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8},
          defaults.dedup_limit}) {
      mocus_options opt;
      opt.dedup_limit = limit;
      const mocus_result inline_run = mocus(ft, opt);
      if (limit == 1 && inputs[i].wide) {
        // Shared ORs make duplicates within a drain that only its visited
        // set removes.
        EXPECT_LT(unbounded.partials_processed, inline_run.partials_processed)
            << "input " << i;
      }
      for (thread_pool* pool :
           {static_cast<thread_pool*>(nullptr), &pool2, &pool8}) {
        const std::size_t threads = pool == nullptr ? 1 : pool->size();
        opt.pool = pool;
        const mocus_result r = mocus(ft, opt);
        EXPECT_EQ(r.cutsets, expected)
            << "input " << i << " limit " << limit << " threads " << threads;
        EXPECT_EQ(r.partials_processed, inline_run.partials_processed)
            << "input " << i << " limit " << limit << " threads " << threads;
        EXPECT_EQ(r.cutoff_discarded, inline_run.cutoff_discarded)
            << "input " << i << " limit " << limit << " threads " << threads;
        EXPECT_EQ(r.lookahead_pruned, inline_run.lookahead_pruned)
            << "input " << i << " limit " << limit << " threads " << threads;
      }
    }
  }
}

/// The look-ahead bound rule of DESIGN.md §9, written independently of
/// mocus.cpp for the reference below: per gate, an upper bound on the
/// product and a lower bound on the size of any cutset's share in its
/// leaves, plus a 512-bit leaf signature (mix64 of an event's index picks
/// its bit). OR: best child. AND: product and sum when no child's
/// signature meets an earlier child's, else the worst child alone.
struct reference_bounds {
  struct entry {
    double bound = 0.0;
    std::size_t order = 0;
    std::bitset<512> leaves;
  };

  explicit reference_bounds(const fault_tree& ft) : ft(ft) {}

  const entry& of(node_index n) {
    if (const auto it = memo.find(n); it != memo.end()) return it->second;
    entry e;
    const ft_node& node = ft.node(n);
    if (ft.is_basic(n)) {
      e = {node.probability, 1, {}};
      e.leaves.set(mix64(n) % 512);
    } else if (node.type == gate_type::or_gate) {
      e.order = no_cutset;
      for (node_index c : node.inputs) {
        const entry& child = of(c);
        e.bound = std::max(e.bound, child.bound);
        e.order = std::min(e.order, child.order);
        e.leaves |= child.leaves;
      }
    } else {
      bool disjoint = true;
      double product = 1.0;
      double worst = 1.0;
      std::size_t sum = 0;
      std::size_t most = 0;
      for (node_index c : node.inputs) {
        const entry& child = of(c);
        disjoint = disjoint && (e.leaves & child.leaves).none();
        e.leaves |= child.leaves;
        product *= child.bound;
        worst = std::min(worst, child.bound);
        sum = std::min(sum + child.order, no_cutset);
        most = std::max(most, child.order);
      }
      e.bound = disjoint ? product : worst;
      e.order = disjoint ? sum : most;
    }
    return memo.emplace(n, e).first->second;
  }

  /// True when P(E) · ∏ b(g) < cutoff · (1 − 1e-9) or |E| + Σ lo(g) >
  /// max_order, over the gates taken in index order whose signatures meet
  /// neither E nor an earlier taken gate.
  bool dooms(const std::vector<node_index>& events,
             const std::vector<node_index>& gates, double cutoff,
             std::size_t max_order) {
    const double reject_below = cutoff * (1.0 - 1e-9);
    std::bitset<512> used;
    double product = 1.0;
    for (node_index e : events) {
      used.set(mix64(e) % 512);
      product *= ft.node(e).probability;
    }
    std::size_t size = events.size();
    for (node_index g : gates) {
      const entry& e = of(g);
      if ((used & e.leaves).any()) continue;
      used |= e.leaves;
      product *= e.bound;
      size += e.order;
      if (product < reject_below || size > max_order) return true;
    }
    return false;
  }

  static constexpr std::size_t no_cutset = std::size_t{1} << 30;
  const fault_tree& ft;
  std::map<node_index, entry> memo;
};

/// Reference MOCUS that prices an OR branch only after copying the partial
/// and inserting the child (copy-then-check). Same expansion order (the
/// first AND gate, else the first gate), the same walks and exact
/// deduplication within each walk, so its counters are the ones the
/// production driver must reproduce. With
/// `lookahead` it also drops each new partial that reference_bounds dooms,
/// as production does whenever the cutoff or max_order is active; without
/// it, it is the unpruned cutset oracle.
struct copy_then_check_run {
  std::vector<cutset> cutsets;
  std::size_t processed = 0;
  std::size_t discarded = 0;
  std::size_t pruned = 0;
};

copy_then_check_run copy_then_check(const fault_tree& ft, double cutoff,
                                    std::size_t max_order, bool lookahead) {
  using partial = std::pair<std::vector<node_index>, std::vector<node_index>>;
  copy_then_check_run run;
  reference_bounds bounds(ft);
  // Inserts b; true if the grown partial dies by order or cutoff.
  const auto dies = [&](std::vector<node_index>& events, node_index b) {
    if (std::binary_search(events.begin(), events.end(), b)) return false;
    events.insert(std::lower_bound(events.begin(), events.end(), b), b);
    double p = 1.0;
    for (node_index e : events) p *= ft.node(e).probability;
    if (events.size() > max_order || (cutoff > 0.0 && p < cutoff)) {
      ++run.discarded;
      return true;
    }
    return false;
  };
  // True if the look-ahead drops the new partial `c`.
  const auto doomed = [&](const partial& c) {
    if (!lookahead || !bounds.dooms(c.first, c.second, cutoff, max_order)) {
      return false;
    }
    ++run.discarded;
    ++run.pruned;
    return true;
  };
  const auto add_gate = [](std::vector<node_index>& gates, node_index g) {
    const auto it = std::lower_bound(gates.begin(), gates.end(), g);
    if (it == gates.end() || *it != g) gates.insert(it, g);
  };
  std::vector<cutset> raw;
  // Expands `p` by one gate and appends its children missing from `seen`
  // to `pending`.
  const auto step = [&](partial p, std::set<partial>& seen, auto& pending) {
    ++run.processed;
    auto& [events, gates] = p;
    if (gates.empty()) {
      raw.push_back(events);
      return;
    }
    std::size_t pick = 0;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (ft.node(gates[i]).type == gate_type::and_gate) {
        pick = i;
        break;
      }
    }
    const ft_node& gate = ft.node(gates[pick]);
    gates.erase(gates.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<partial> children;
    if (gate.type == gate_type::and_gate) {
      bool alive = true;
      for (node_index child : gate.inputs) {
        if (!ft.is_basic(child)) {
          add_gate(gates, child);
        } else if (dies(events, child)) {
          alive = false;
          break;
        }
      }
      if (alive && !doomed(p)) children.push_back(p);
    } else {
      for (node_index child : gate.inputs) {
        partial branch = p;
        if (!ft.is_basic(child)) {
          add_gate(branch.second, child);
        } else if (dies(branch.first, child)) {
          continue;
        }
        if (!doomed(branch)) children.push_back(std::move(branch));
      }
    }
    for (partial& c : children) {
      if (seen.insert(c).second) pending.push_back(std::move(c));
    }
  };
  // The production walks: breadth-first until mocus_frontier_width
  // partials are pending, then one depth-first drain per frontier partial,
  // each with its own seen set.
  const partial seed{{}, {ft.top()}};
  std::set<partial> seen{seed};
  std::deque<partial> frontier{seed};
  while (!frontier.empty() && frontier.size() < mocus_frontier_width) {
    partial p = std::move(frontier.front());
    frontier.pop_front();
    step(std::move(p), seen, frontier);
  }
  for (partial& root : frontier) {
    std::set<partial> drain_seen{root};
    std::vector<partial> stack{std::move(root)};
    while (!stack.empty()) {
      partial p = std::move(stack.back());
      stack.pop_back();
      step(std::move(p), drain_seen, stack);
    }
  }
  run.cutsets = minimize_cutsets(std::move(raw));
  return run;
}

TEST(MocusAdmits, DiscardsMatchCopyThenCheck) {
  thread_pool pool2(2);
  thread_pool pool8(8);
  const std::size_t unlimited = mocus_options{}.max_order;
  const std::pair<double, std::size_t> limits[] = {
      {1e-3, unlimited}, {1e-4, unlimited}, {0.0, 2}, {0.0, 3}, {1e-4, 3}};
  for (const auto& [cutoff, max_order] : limits) {
    std::size_t total_discarded = 0;
    std::size_t total_pruned = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const fault_tree ft = testing::shared_or_tree(seed);
      const copy_then_check_run ref =
          copy_then_check(ft, cutoff, max_order, true);
      const copy_then_check_run unpruned =
          copy_then_check(ft, cutoff, max_order, false);
      EXPECT_EQ(ref.cutsets, unpruned.cutsets);
      total_discarded += ref.discarded;
      total_pruned += ref.pruned;
      for (thread_pool* pool :
           {static_cast<thread_pool*>(nullptr), &pool2, &pool8}) {
        mocus_options opt;
        opt.cutoff = cutoff;
        opt.max_order = max_order;
        opt.pool = pool;
        const mocus_result r = mocus(ft, opt);
        const std::string label =
            "seed " + std::to_string(seed) + " cutoff " +
            std::to_string(cutoff) + " max_order " + std::to_string(max_order) +
            " threads " + std::to_string(pool == nullptr ? 1 : pool->size());
        EXPECT_EQ(r.cutsets, unpruned.cutsets) << label;
        EXPECT_EQ(r.cutoff_discarded, ref.discarded) << label;
        EXPECT_EQ(r.lookahead_pruned, ref.pruned) << label;
        EXPECT_EQ(r.partials_processed, ref.processed) << label;
      }
    }
    // The limits and the look-ahead must actually bite, or the comparison
    // proves nothing.
    EXPECT_GT(total_discarded, 0u) << "cutoff " << cutoff << " max_order "
                                   << max_order;
    EXPECT_GT(total_pruned, 0u) << "cutoff " << cutoff << " max_order "
                                << max_order;
  }
}

TEST(MocusAdmits, PricesBranchesInSortedOrder) {
  // top = AND(a, c, OR(b, d)) with indices a < b < c: the branch {a, b, c}
  // is priced as (pa * pb) * pc, the sorted-order product. Pick
  // probabilities for which pricing the new child last, (pa * pc) * pb,
  // rounds lower, and put the cutoff exactly on the sorted product: the
  // branch must survive, as it does under copy-then-check.
  rng random(7);
  double pa = 0.0;
  double pb = 0.0;
  double pc = 0.0;
  do {
    pa = random.uniform(0.01, 0.5);
    pb = random.uniform(0.01, 0.5);
    pc = random.uniform(0.01, 0.5);
  } while (!((pa * pc) * pb < (pa * pb) * pc));
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", pa);
  const node_index b = ft.add_basic_event("b", pb);
  const node_index c = ft.add_basic_event("c", pc);
  const node_index d = ft.add_basic_event("d", 0.9);
  const node_index branch = ft.add_gate("or", gate_type::or_gate, {b, d});
  ft.set_top(ft.add_gate("top", gate_type::and_gate, {a, c, branch}));

  mocus_options opt;
  opt.cutoff = (pa * pb) * pc;
  const mocus_result r = mocus(ft, opt);
  EXPECT_EQ(r.cutsets,
            copy_then_check(ft, opt.cutoff, opt.max_order, false).cutsets);
  EXPECT_NE(std::find(r.cutsets.begin(), r.cutsets.end(), cutset{a, b, c}),
            r.cutsets.end());
}

/// The cutsets of `all` that a cutoff and an order bound keep. For `all`
/// the unpruned list at a lower cutoff, this is the unpruned list at
/// `cutoff`: a sorted-order product only falls as factors <= 1 join it, so
/// every partial on the way to a kept minimal cutset passes the cutoff.
std::vector<cutset> kept_cutsets(const fault_tree& ft,
                                 const std::vector<cutset>& all, double cutoff,
                                 std::size_t max_order) {
  std::vector<cutset> out;
  for (const cutset& c : all) {
    if (c.size() <= max_order && cutset_probability(ft, c) >= cutoff) {
      out.push_back(c);
    }
  }
  return out;
}

/// Up to `count` cutoffs placed exactly on probabilities of cutsets in
/// `all` that are at least `floor`, spread from the likeliest down.
std::vector<double> cutoffs_on_cutsets(const fault_tree& ft,
                                       const std::vector<cutset>& all,
                                       double floor, std::size_t count) {
  std::vector<double> p;
  for (const cutset& c : all) {
    const double q = cutset_probability(ft, c);
    if (q >= floor) p.push_back(q);
  }
  std::sort(p.begin(), p.end(), std::greater<>());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  std::vector<double> out;
  for (std::size_t i = 0; i < count && !p.empty(); ++i) {
    out.push_back(p[i * (p.size() - 1) / std::max<std::size_t>(1, count - 1)]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(MocusLookahead, MatchesUnprunedOracle) {
  // Look-ahead pricing drops partials, never cutsets: at cutoffs placed
  // exactly on cutset probabilities (where a bound without the relative
  // margin rounds below the cutoff) and under order bounds, the list must
  // equal the unpruned one at every thread count. Unpruned lists come from
  // runs the look-ahead skips (cutoff 0, no order bound) or, for the
  // industrial model, from the copy-then-check reference without it.
  thread_pool pool2(2);
  thread_pool pool8(8);
  const std::size_t unbounded = mocus_options{}.max_order;
  std::size_t runs = 0;
  std::size_t pruned = 0;
  // Compares every (cutoff, max_order, threads) run of `base` against the
  // cutsets `all` keep.
  const auto check = [&](const std::string& name, const fault_tree& ft,
                         const mocus_options& base,
                         const std::vector<cutset>& all,
                         const std::vector<double>& cutoffs) {
    for (double cutoff : cutoffs) {
      for (std::size_t max_order : {std::size_t{2}, std::size_t{3}, unbounded}) {
        const std::vector<cutset> expected =
            kept_cutsets(ft, all, cutoff, max_order);
        for (thread_pool* pool :
             {static_cast<thread_pool*>(nullptr), &pool2, &pool8}) {
          mocus_options opt = base;
          opt.cutoff = cutoff;
          opt.max_order = max_order;
          opt.pool = pool;
          const mocus_result r = mocus(ft, opt);
          EXPECT_EQ(r.cutsets, expected)
              << name << " cutoff " << cutoff << " max_order " << max_order
              << " threads " << (pool == nullptr ? 1 : pool->size());
          EXPECT_LE(r.lookahead_pruned, r.cutoff_discarded);
          ++runs;
          pruned += r.lookahead_pruned;
        }
      }
    }
  };
  // Complete lists (the look-ahead is off at cutoff 0 without an order
  // bound) with and without assumptions, on `ft`.
  const auto complete = [](const fault_tree& ft, const mocus_options& base) {
    mocus_result r = mocus(ft, base);
    EXPECT_EQ(r.lookahead_pruned, 0u);
    return std::move(r.cutsets);
  };

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const fault_tree ft = testing::shared_or_tree(seed);
    const std::string name = "shared_or_tree " + std::to_string(seed);
    mocus_options plain;
    const std::vector<cutset> all = complete(ft, plain);
    check(name, ft, plain, all, cutoffs_on_cutsets(ft, all, 0.0, 12));
    mocus_options assumed;
    assumed.assume_failed = {ft.find("e" + std::to_string(seed % 10))};
    assumed.assume_working = {ft.find("e" + std::to_string((seed + 3) % 10))};
    const std::vector<cutset> all_assumed = complete(ft, assumed);
    check(name + " assumed", ft, assumed, all_assumed,
          cutoffs_on_cutsets(ft, all_assumed, 0.0, 12));
  }

  const fault_tree bwr = make_bwr_model({}).structure();
  {
    mocus_options plain;
    const std::vector<cutset> all = complete(bwr, plain);
    check("bwr", bwr, plain, all, cutoffs_on_cutsets(bwr, all, 1e-9, 4));
    mocus_options assumed;
    const std::vector<node_index> events = bwr.basic_events();
    assumed.assume_failed = {events[3]};
    assumed.assume_working = {events[11], events[20]};
    const std::vector<cutset> all_assumed = complete(bwr, assumed);
    check("bwr assumed", bwr, assumed, all_assumed,
          cutoffs_on_cutsets(bwr, all_assumed, 1e-9, 4));
  }

  // Bench-size industrial model 1.
  const fault_tree industrial =
      generate_industrial(bench::model1_options(false)).ft;
  const double floor = 1e-13;
  const std::vector<cutset> all =
      copy_then_check(industrial, floor, unbounded, false).cutsets;
  std::vector<double> cutoffs = cutoffs_on_cutsets(industrial, all, floor, 5);
  cutoffs.push_back(floor);
  check("industrial", industrial, mocus_options{}, all, cutoffs);

  EXPECT_GT(runs, 0u);
  EXPECT_GT(pruned, 0u);
}

TEST(MinimizeCutsets, RemovesSupersetsAndDuplicates) {
  std::vector<cutset> sets{{1, 2, 3}, {1, 2}, {1, 2}, {2, 3}, {3}};
  const auto minimal = minimize_cutsets(std::move(sets));
  EXPECT_EQ(minimal, (std::vector<cutset>{{3}, {1, 2}}));
}

TEST(MinimizeCutsets, EmptySetSubsumesEverything) {
  std::vector<cutset> sets{{1, 2}, {}, {3}};
  const auto minimal = minimize_cutsets(std::move(sets));
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_TRUE(minimal[0].empty());
}

TEST(CutsetQuantities, RareEventAndMcub) {
  const fault_tree ft = testing::example1_static();
  const auto cuts = mocus(ft).cutsets;
  const double rea = rare_event_probability(ft, cuts);
  const double mcub = min_cut_upper_bound(ft, cuts);
  const double exact = ft.probability_brute_force();
  EXPECT_GE(rea, exact - 1e-18);
  EXPECT_GE(mcub, exact - 1e-18);
  EXPECT_LE(mcub, rea + 1e-18);
  // Expected rare-event value: p_e + 2*(p_a*p_c-ish products).
  const double expected = testing::p_tank +
                          testing::p_fts * testing::p_fts +
                          2 * testing::p_fts * testing::p_fio +
                          testing::p_fio * testing::p_fio;
  EXPECT_NEAR(rea, expected, 1e-15);
}

/// Random coherent fault tree for property testing.
fault_tree random_tree(rng& random, int num_events, int num_gates) {
  fault_tree ft;
  std::vector<node_index> pool;
  for (int i = 0; i < num_events; ++i) {
    pool.push_back(ft.add_basic_event("e" + std::to_string(i),
                                      random.uniform(0.01, 0.3)));
  }
  node_index last = pool[0];
  for (int g = 0; g < num_gates; ++g) {
    const auto type =
        random.chance(0.5) ? gate_type::and_gate : gate_type::or_gate;
    std::vector<node_index> inputs;
    const int arity = static_cast<int>(random.between(2, 3));
    for (int i = 0; i < arity; ++i) {
      inputs.push_back(pool[random.below(pool.size())]);
    }
    last = ft.add_gate("g" + std::to_string(g), type, inputs);
    pool.push_back(last);
  }
  ft.set_top(last);
  return ft;
}

class MocusRandomTrees : public ::testing::TestWithParam<int> {};

TEST_P(MocusRandomTrees, MatchesBruteForce) {
  rng random(static_cast<std::uint64_t>(GetParam()));
  const fault_tree ft = random_tree(random, 8, 6);
  const auto via_mocus = mocus(ft).cutsets;
  const auto via_brute = minimal_cutsets_brute_force(ft);
  EXPECT_EQ(via_mocus, via_brute);
  EXPECT_TRUE(are_minimal_cutsets(ft, via_mocus));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MocusRandomTrees, ::testing::Range(0, 25));

}  // namespace
}  // namespace sdft
