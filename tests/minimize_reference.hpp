#pragma once

// The pre-bitset element-wise cutset minimiser (sorted vectors + per-event
// counting): the differential reference minimize_cutsets() is tested and
// benchmarked against. Output is bit-identical to minimize_cutsets().

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "mcs/cutset.hpp"

namespace sdft::testing {

inline std::vector<cutset> minimize_cutsets_reference(
    std::vector<cutset> sets) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());

  // The empty cutset (a constant-failed tree) subsumes everything; the
  // counting scheme below cannot see it because it has no members.
  if (!sets.empty() && sets.front().empty()) return {cutset{}};

  // Per-event index over kept cutsets: a candidate is subsumed iff some kept
  // cutset is counted |kept| times across the candidate's member lists.
  std::vector<cutset> kept;
  std::unordered_map<node_index, std::vector<std::size_t>> by_event;
  std::unordered_map<std::size_t, std::size_t> hits;
  for (auto& cand : sets) {
    hits.clear();
    bool subsumed = false;
    for (node_index b : cand) {
      auto it = by_event.find(b);
      if (it == by_event.end()) continue;
      for (std::size_t k : it->second) {
        if (++hits[k] == kept[k].size()) {
          subsumed = true;
          break;
        }
      }
      if (subsumed) break;
    }
    if (subsumed) continue;
    const std::size_t id = kept.size();
    for (node_index b : cand) by_event[b].push_back(id);
    kept.push_back(std::move(cand));
  }
  return kept;
}

}  // namespace sdft::testing
