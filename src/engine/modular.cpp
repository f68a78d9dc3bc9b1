#include "engine/modular.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// Module subproblems at least this large keep the whole pool to
/// themselves instead of sharing a fan-out batch with their siblings.
constexpr std::size_t big_module_nodes = 4096;

/// One module subproblem: the local tree (nested module roots replaced by
/// pseudo basic events carrying their probability bound) plus the map
/// from local indices back to prep-tree indices.
struct module_task {
  node_index root = fault_tree::npos;  // prep-tree index of the module root
  fault_tree local;
  std::vector<node_index> to_prep;  // local index -> prep index
};

/// Maps prep-space cutsets to SD indices through the prep ancestry and
/// the FT-bar translation, then orders the list canonically.
std::vector<cutset> map_to_sd(std::vector<cutset> prep_cutsets,
                              const prep_result& prep,
                              const static_translation& translation) {
  obs::span_scope span("cutsets.map_to_sd", "generate");
  span.arg("cutsets", static_cast<double>(prep_cutsets.size()));
  for (cutset& c : prep_cutsets) {
    for (node_index& e : c) e = translation.to_sd.at(prep.to_source[e]);
    std::sort(c.begin(), c.end());
  }
  sort_cutsets_canonically(prep_cutsets);
  return prep_cutsets;
}

/// Builds the local tree of module `m`: its region of the prep tree up to
/// (and excluding) nested module roots, which enter as pseudo basic
/// events priced at their bound. Children-first emission keeps the local
/// tree a valid fault_tree as it grows.
module_task build_task(const prep_result& prep, node_index m,
                       const std::unordered_map<node_index, std::size_t>&
                           slot_of,
                       const std::vector<double>& bound) {
  const fault_tree& tree = prep.tree;
  module_task task;
  task.root = m;
  std::unordered_map<node_index, node_index> local_of;
  std::vector<std::pair<node_index, std::size_t>> stack;
  stack.emplace_back(m, 0);
  while (!stack.empty()) {
    auto& [n, next_input] = stack.back();
    const auto nested = n != m ? slot_of.find(n) : slot_of.end();
    if (tree.is_basic(n) || nested != slot_of.end()) {
      if (!local_of.count(n)) {
        const double p = tree.is_basic(n) ? tree.node(n).probability
                                          : bound[nested->second];
        local_of.emplace(n, task.local.add_basic_event(tree.node(n).name, p));
        task.to_prep.push_back(n);
      }
      stack.pop_back();
      continue;
    }
    const auto& inputs = tree.node(n).inputs;
    if (next_input < inputs.size()) {
      const node_index child = inputs[next_input++];
      if (!local_of.count(child)) stack.emplace_back(child, 0);
    } else {
      if (!local_of.count(n)) {
        std::vector<node_index> local_inputs;
        local_inputs.reserve(inputs.size());
        for (node_index child : inputs) {
          local_inputs.push_back(local_of.at(child));
        }
        local_of.emplace(n, task.local.add_gate(tree.node(n).name,
                                                tree.node(n).type,
                                                local_inputs));
        task.to_prep.push_back(n);
      }
      stack.pop_back();
    }
  }
  task.local.set_top(local_of.at(m));
  return task;
}

/// One local cutset of a module: its prep basic events (sorted) and the
/// slots of the nested modules whose pseudo events it holds.
struct quotient {
  cutset base;
  std::vector<std::size_t> nested;
};

quotient split_quotient(const module_task& task, const cutset& lc,
                        const std::unordered_map<node_index, std::size_t>&
                            slot_of) {
  quotient q;
  for (node_index local_event : lc) {
    const node_index e = task.to_prep[local_event];
    const auto it = e != task.root ? slot_of.find(e) : slot_of.end();
    if (it != slot_of.end()) {
      q.nested.push_back(it->second);
    } else {
      q.base.push_back(e);
    }
  }
  std::sort(q.base.begin(), q.base.end());
  return q;
}

/// Substitutes nested modules' expanded cutset lists into one module's
/// quotient cutsets (the cartesian product per quotient cutset) and keeps
/// the products whose canonical cutset_probability() reaches `cutoff`;
/// cutoff 0 keeps them all. Each nested slot's list is walked likeliest
/// first, depth-first over the slots of a quotient cutset. The price
/// P(base) · Π P(chosen) · Π bound[later slots] bounds every product the
/// walk can still complete, so once it falls below
/// cutoff · (1 − pricing_slack) the rest of the current slot's list is
/// skipped unbuilt. Below min_priced_cutoff nothing is skipped. `kept` is
/// the substitute-then-filter list in no particular order, and
/// `discarded` counts that filter's drops, skipped products included.
class substitution {
 public:
  substitution(const fault_tree& tree,
                      const std::vector<std::vector<cutset>>& expanded,
                      double cutoff)
      : tree_(tree),
        expanded_(expanded),
        cutoff_(cutoff),
        reject_below_(cutoff >= min_priced_cutoff
                          ? cutoff * (1.0 - pricing_slack)
                          : 0.0),
        sorted_(expanded.size()) {}

  void add(quotient q) {
    const std::size_t k = q.nested.size();
    lists_.resize(k);
    later_bound_.assign(k + 1, 1.0);
    later_count_.assign(k + 1, 1);
    for (std::size_t j = k; j-- > 0;) {
      lists_[j] = &sorted(q.nested[j]);
      const double bound = lists_[j]->empty() ? 0.0 : lists_[j]->front().first;
      later_bound_[j] = later_bound_[j + 1] * bound;
      later_count_[j] = later_count_[j + 1] * lists_[j]->size();
    }
    merged_.resize(k + 1);
    const double price = cutset_probability(tree_, q.base);
    merged_[0] = std::move(q.base);
    walk(0, price);
  }

  std::vector<cutset> kept;
  std::size_t discarded = 0;
  std::size_t products = 0;    ///< products built and filtered exactly
  std::size_t priced_out = 0;  ///< products skipped by price, never built

 private:
  /// One nested module's cutsets with their probabilities, likeliest first.
  using priced_list = std::vector<std::pair<double, const cutset*>>;

  const priced_list& sorted(std::size_t slot) {
    priced_list& list = sorted_[slot];
    if (list.empty() && !expanded_[slot].empty()) {
      list.reserve(expanded_[slot].size());
      for (const cutset& c : expanded_[slot]) {
        list.emplace_back(cutset_probability(tree_, c), &c);
      }
      std::sort(list.begin(), list.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
    }
    return list;
  }

  void walk(std::size_t depth, double price) {
    if (depth == lists_.size()) {
      ++products;
      if (cutset_probability(tree_, merged_[depth]) >= cutoff_) {
        kept.push_back(merged_[depth]);
      } else {
        ++discarded;
      }
      return;
    }
    const priced_list& list = *lists_[depth];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const double chosen = price * list[i].first;
      if (chosen * later_bound_[depth + 1] < reject_below_) {
        // The list is likeliest first: no later entry prices higher.
        const std::size_t skipped =
            (list.size() - i) * later_count_[depth + 1];
        priced_out += skipped;
        discarded += skipped;
        return;
      }
      const cutset& a = merged_[depth];
      const cutset& mc = *list[i].second;
      cutset& next = merged_[depth + 1];
      next.resize(a.size() + mc.size());
      std::merge(a.begin(), a.end(), mc.begin(), mc.end(), next.begin());
      walk(depth + 1, chosen);
    }
  }

  const fault_tree& tree_;
  const std::vector<std::vector<cutset>>& expanded_;
  double cutoff_;
  double reject_below_;
  std::vector<priced_list> sorted_;  // per slot, filled on first use
  // Per quotient cutset, by depth: the slot lists, the products of the
  // bounds and of the list sizes of the slots from that depth on, and
  // base ∪ the entries chosen above that depth.
  std::vector<const priced_list*> lists_;
  std::vector<double> later_bound_;
  std::vector<std::size_t> later_count_;
  std::vector<cutset> merged_;
};

}  // namespace

modular_generation generate_modular(const prep_result& prep,
                                    const static_translation& translation,
                                    const cutset_source& source,
                                    double cutoff, thread_pool* pool) {
  modular_generation out;
  const auto& roots = prep.module_roots;
  require_model(!roots.empty() && roots.back() == prep.tree.top(),
                "modular: module_roots must end with the top gate");
  out.modules_analyzed = roots.size();

  // Fast path: one module (modularization off, or nothing to split).
  if (roots.size() == 1) {
    out.generation = source.generate(prep.tree, cutoff, pool);
    out.generation.cutsets =
        map_to_sd(std::move(out.generation.cutsets), prep, translation);
    return out;
  }

  obs::span_scope span("cutsets.modules", "generate");
  span.arg("modules", static_cast<double>(roots.size()));

  std::unordered_map<node_index, std::size_t> slot_of;
  for (std::size_t i = 0; i < roots.size(); ++i) slot_of.emplace(roots[i], i);

  // Expanded cutsets (prep basic-event space) and pseudo-event bounds per
  // module, filled in nesting order.
  std::vector<std::vector<cutset>> expanded(roots.size());
  std::vector<double> bound(roots.size(), 0.0);
  std::vector<module_task> tasks(roots.size());

  // Nesting level per module: 1 + the deepest nested module in its
  // region. module_roots is topological (nested before enclosing), so one
  // slot-order sweep of region DFSs settles every level; walking levels
  // upward then guarantees every nested bound is final before a parent
  // subproblem is built.
  std::vector<std::size_t> level(roots.size(), 1);
  for (std::size_t slot = 0; slot < roots.size(); ++slot) {
    std::vector<char> seen(prep.tree.size(), 0);
    std::vector<node_index> stack{roots[slot]};
    seen[roots[slot]] = 1;
    while (!stack.empty()) {
      const node_index n = stack.back();
      stack.pop_back();
      for (node_index child : prep.tree.node(n).inputs) {
        if (seen[child]) continue;
        seen[child] = 1;
        const auto it = slot_of.find(child);
        if (it != slot_of.end()) {
          level[slot] = std::max(level[slot], level[it->second] + 1);
        } else if (prep.tree.is_gate(child)) {
          stack.push_back(child);
        }
      }
    }
  }
  const std::size_t max_level =
      *std::max_element(level.begin(), level.end());

  const auto finish = [&](std::size_t slot, cutset_generation generated) {
    out.generation.partials_processed += generated.partials_processed;
    out.generation.discarded += generated.discarded;
    out.generation.lookahead_pruned += generated.lookahead_pruned;
    out.generation.subset_tests += generated.subset_tests;
    out.generation.bitset_words =
        std::max(out.generation.bitset_words, generated.bitset_words);
    // The top module's list ends in the exact cutoff filter: pseudo-event
    // bounds only guaranteed conservative keeps; the true products decide.
    // Nested lists stay unfiltered (cutoff 0): each sets its pseudo
    // event's bound and is substituted whole into the enclosing module.
    const bool top = roots[slot] == prep.tree.top();
    substitution sub(prep.tree, expanded, top ? cutoff : 0.0);
    for (const cutset& lc : generated.cutsets) {
      sub.add(split_quotient(tasks[slot], lc, slot_of));
    }
    if (top) {
      out.generation.discarded += sub.discarded;
      span.arg("top_products", static_cast<double>(sub.products));
      span.arg("top_priced_out", static_cast<double>(sub.priced_out));
      out.generation.cutsets =
          map_to_sd(std::move(sub.kept), prep, translation);
      return;
    }
    expanded[slot] = std::move(sub.kept);
    for (const cutset& c : expanded[slot]) {
      bound[slot] = std::max(bound[slot], cutset_probability(prep.tree, c));
    }
    out.module_cutsets += expanded[slot].size();
  };
  for (std::size_t l = 1; l <= max_level; ++l) {
    std::vector<std::size_t> batch;  // small modules, fanned out together
    std::vector<std::size_t> big;    // large modules, pool to themselves
    for (std::size_t slot = 0; slot < roots.size(); ++slot) {
      if (level[slot] != l) continue;
      tasks[slot] = build_task(prep, roots[slot], slot_of, bound);
      (tasks[slot].local.size() >= big_module_nodes ? big : batch)
          .push_back(slot);
    }
    if (batch.size() == 1) {  // a lone small module keeps the pool
      big.push_back(batch.front());
      batch.clear();
    }
    // Serial generation inside each worker; assignment is structural, so
    // the per-slot outputs are thread-count independent.
    std::vector<cutset_generation> results(batch.size());
    parallel_for(pool, batch.size(), [&](std::size_t i) {
      results[i] = source.generate(tasks[batch[i]].local, cutoff, nullptr);
    });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      finish(batch[i], std::move(results[i]));
    }
    for (std::size_t slot : big) {
      finish(slot, source.generate(tasks[slot].local, cutoff, pool));
    }
  }
  return out;
}

}  // namespace sdft
