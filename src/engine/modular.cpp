#include "engine/modular.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// Jobs below this size are not worth fanning out.
constexpr std::size_t parallel_grain = 2048;

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
                              const static_translation& translation,
                              thread_pool* pool) {
  obs::span_scope span("cutsets.map_to_sd", "generate");
  span.arg("cutsets", static_cast<double>(prep_cutsets.size()));
  std::vector<cutset> out(prep_cutsets.size());
  const auto map_one = [&](std::size_t i) {
    cutset mapped;
    mapped.reserve(prep_cutsets[i].size());
    for (node_index e : prep_cutsets[i]) {
      mapped.push_back(translation.to_sd.at(prep.to_source[e]));
    }
    std::sort(mapped.begin(), mapped.end());
    out[i] = std::move(mapped);
  };
  if (pool != nullptr && pool->size() > 1 && out.size() >= parallel_grain) {
    parallel_for(*pool, out.size(), map_one);
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) map_one(i);
  }
  sort_cutsets_canonically(out);
  return out;
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

/// Substitutes nested modules' expanded cutset lists into one module's
/// local cutsets (cartesian product per quotient cutset); returns the
/// module's cutsets over prep basic events, canonically ordered.
std::vector<cutset> substitute(const module_task& task,
                               std::vector<cutset> local_cutsets,
                               const std::unordered_map<node_index,
                                                        std::size_t>& slot_of,
                               const std::vector<std::vector<cutset>>&
                                   expanded) {
  std::vector<cutset> out;
  out.reserve(local_cutsets.size());
  for (const cutset& lc : local_cutsets) {
    cutset base;
    std::vector<std::size_t> nested;
    for (node_index local_event : lc) {
      const node_index e = task.to_prep[local_event];
      const auto it = e != task.root ? slot_of.find(e) : slot_of.end();
      if (it != slot_of.end()) {
        nested.push_back(it->second);
      } else {
        base.push_back(e);
      }
    }
    std::sort(base.begin(), base.end());
    if (nested.empty()) {
      out.push_back(std::move(base));
      continue;
    }
    std::vector<cutset> acc{std::move(base)};
    for (std::size_t slot : nested) {
      std::vector<cutset> next;
      next.reserve(acc.size() * expanded[slot].size());
      for (const cutset& a : acc) {
        for (const cutset& mc : expanded[slot]) {
          cutset merged;
          merged.resize(a.size() + mc.size());
          std::merge(a.begin(), a.end(), mc.begin(), mc.end(),
                     merged.begin());
          next.push_back(std::move(merged));
        }
      }
      acc = std::move(next);
    }
    for (auto& c : acc) out.push_back(std::move(c));
  }
  sort_cutsets_canonically(out);
  return out;
}

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
        map_to_sd(std::move(out.generation.cutsets), prep, translation, pool);
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
    expanded[slot] = substitute(tasks[slot], std::move(generated.cutsets),
                                slot_of, expanded);
    for (const cutset& c : expanded[slot]) {
      bound[slot] = std::max(bound[slot], cutset_probability(prep.tree, c));
    }
    if (roots[slot] != prep.tree.top()) {
      out.module_cutsets += expanded[slot].size();
    }
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
    if (pool != nullptr && pool->size() > 1 && batch.size() > 1) {
      // Serial generation inside each worker; assignment is structural,
      // so the per-slot outputs are thread-count independent.
      std::vector<cutset_generation> results(batch.size());
      parallel_for(*pool, batch.size(), [&](std::size_t i) {
        results[i] =
            source.generate(tasks[batch[i]].local, cutoff, nullptr);
      });
      for (std::size_t i = 0; i < batch.size(); ++i) {
        finish(batch[i], std::move(results[i]));
      }
    } else {
      for (std::size_t slot : batch) {
        finish(slot, source.generate(tasks[slot].local, cutoff, pool));
      }
    }
    for (std::size_t slot : big) {
      finish(slot, source.generate(tasks[slot].local, cutoff, pool));
    }
  }

  // Exact cutoff filter over the fully substituted list: pseudo-event
  // bounds only guaranteed conservative keeps; the true products decide.
  std::vector<cutset> final_cutsets = std::move(expanded.back());
  if (cutoff > 0.0) {
    const auto below = [&](const cutset& c) {
      return cutset_probability(prep.tree, c) < cutoff;
    };
    const auto it =
        std::remove_if(final_cutsets.begin(), final_cutsets.end(), below);
    out.generation.discarded +=
        static_cast<std::size_t>(final_cutsets.end() - it);
    final_cutsets.erase(it, final_cutsets.end());
  }
  out.generation.cutsets =
      map_to_sd(std::move(final_cutsets), prep, translation, pool);
  return out;
}

}  // namespace sdft
