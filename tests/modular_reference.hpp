#pragma once

// Reference for the module-orchestrated stage 2 (src/engine/modular.cpp):
// the recombination without pricing. Modules run serially in
// prep_result::module_roots order (nested before enclosing), every module —
// the top one included — substitutes its nested modules' complete lists
// (the full cartesian product per quotient cutset), and one exact cutoff
// filter over the top module's complete list follows. generate_modular()
// prices the top module's products instead and never builds those that
// cannot reach the cutoff; its list and counters must equal these exactly.

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/cutset_source.hpp"
#include "engine/modular.hpp"
#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"
#include "prep/prep.hpp"
#include "sdft/translate.hpp"

namespace sdft::testing {

/// What the unpriced recombination produced, plus the quantities the
/// tests place cutoffs on.
struct modular_reference {
  modular_generation result;
  /// Pseudo-event bound of each nested module (module_roots order, top
  /// excluded): the largest probability among its kept cutsets.
  std::vector<double> bounds;
  /// cutset_probability() over the prep tree of every cutset the exact
  /// filter kept (the canonical product the filter compares).
  std::vector<double> probabilities;
  /// Size of the top module's full product before the exact filter.
  std::size_t top_products = 0;
};

inline modular_reference reference_generate_modular(
    const prep_result& prep, const static_translation& translation,
    const cutset_source& source, double cutoff) {
  const fault_tree& tree = prep.tree;
  const std::vector<node_index>& roots = prep.module_roots;
  std::unordered_map<node_index, std::size_t> slot_of;
  for (std::size_t i = 0; i < roots.size(); ++i) slot_of.emplace(roots[i], i);
  std::vector<std::vector<cutset>> expanded(roots.size());
  std::vector<double> bound(roots.size(), 0.0);

  modular_reference ref;
  modular_generation& out = ref.result;
  out.modules_analyzed = roots.size();
  for (std::size_t slot = 0; slot < roots.size(); ++slot) {
    const node_index m = roots[slot];
    const bool single = roots.size() == 1;
    // The module's local tree, children first: nested module roots enter
    // as basic events priced at their bound. Emission order matches the
    // engine's, so the source sees the same tree and counts the same work.
    fault_tree local;
    std::vector<node_index> to_prep;
    std::unordered_map<node_index, node_index> local_of;
    std::vector<std::pair<node_index, std::size_t>> stack{{m, 0}};
    while (!single && !stack.empty()) {
      auto& [n, next_input] = stack.back();
      const auto nested = n != m ? slot_of.find(n) : slot_of.end();
      if (tree.is_basic(n) || nested != slot_of.end()) {
        if (!local_of.count(n)) {
          const double p = tree.is_basic(n) ? tree.node(n).probability
                                            : bound[nested->second];
          local_of.emplace(n, local.add_basic_event(tree.node(n).name, p));
          to_prep.push_back(n);
        }
        stack.pop_back();
        continue;
      }
      const auto& inputs = tree.node(n).inputs;
      if (next_input < inputs.size()) {
        const node_index child = inputs[next_input++];
        if (!local_of.count(child)) stack.emplace_back(child, 0);
        continue;
      }
      if (!local_of.count(n)) {
        std::vector<node_index> local_inputs;
        for (node_index child : inputs) local_inputs.push_back(local_of.at(child));
        local_of.emplace(n, local.add_gate(tree.node(n).name,
                                           tree.node(n).type, local_inputs));
        to_prep.push_back(n);
      }
      stack.pop_back();
    }
    if (!single) local.set_top(local_of.at(m));

    const cutset_generation g =
        source.generate(single ? tree : local, cutoff, nullptr);
    out.generation.partials_processed += g.partials_processed;
    out.generation.discarded += g.discarded;
    out.generation.lookahead_pruned += g.lookahead_pruned;
    out.generation.subset_tests += g.subset_tests;
    out.generation.bitset_words =
        std::max(out.generation.bitset_words, g.bitset_words);
    if (single) {
      expanded[slot] = g.cutsets;
      break;
    }

    // Full substitution of every quotient cutset.
    for (const cutset& lc : g.cutsets) {
      std::vector<cutset> acc{cutset{}};
      for (node_index local_event : lc) {
        const node_index e = to_prep[local_event];
        const auto it = e != m ? slot_of.find(e) : slot_of.end();
        std::vector<cutset> next;
        for (const cutset& a : acc) {
          if (it == slot_of.end()) {
            next.push_back(a);
            next.back().push_back(e);
            continue;
          }
          for (const cutset& mc : expanded[it->second]) {
            next.push_back(a);
            next.back().insert(next.back().end(), mc.begin(), mc.end());
          }
        }
        acc = std::move(next);
      }
      for (cutset& c : acc) {
        std::sort(c.begin(), c.end());
        expanded[slot].push_back(std::move(c));
      }
    }
    if (m == tree.top()) break;
    for (const cutset& c : expanded[slot]) {
      bound[slot] = std::max(bound[slot], cutset_probability(tree, c));
    }
    ref.bounds.push_back(bound[slot]);
    out.module_cutsets += expanded[slot].size();
  }

  std::vector<cutset> final_cutsets = std::move(expanded.back());
  ref.top_products = final_cutsets.size();
  if (roots.size() > 1 && cutoff > 0.0) {
    const auto below = [&](const cutset& c) {
      return cutset_probability(tree, c) < cutoff;
    };
    const auto it =
        std::remove_if(final_cutsets.begin(), final_cutsets.end(), below);
    out.generation.discarded +=
        static_cast<std::size_t>(final_cutsets.end() - it);
    final_cutsets.erase(it, final_cutsets.end());
  }
  for (cutset& c : final_cutsets) {
    ref.probabilities.push_back(cutset_probability(tree, c));
    for (node_index& e : c) e = translation.to_sd.at(prep.to_source[e]);
    std::sort(c.begin(), c.end());
  }
  sort_cutsets_canonically(final_cutsets);
  out.generation.cutsets = std::move(final_cutsets);
  return ref;
}

}  // namespace sdft::testing
