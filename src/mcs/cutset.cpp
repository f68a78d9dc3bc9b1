#include "mcs/cutset.hpp"

#include <algorithm>
#include <cstdint>

#include "util/bitset.hpp"
#include "util/error.hpp"

namespace sdft {

double cutset_probability(const fault_tree& ft, const cutset& c) {
  double p = 1.0;
  for (node_index b : c) p *= ft.node(b).probability;
  return p;
}

double rare_event_probability(const fault_tree& ft,
                              const std::vector<cutset>& cutsets) {
  double total = 0.0;
  for (const auto& c : cutsets) total += cutset_probability(ft, c);
  return total;
}

double min_cut_upper_bound(const fault_tree& ft,
                           const std::vector<cutset>& cutsets) {
  double survive = 1.0;
  for (const auto& c : cutsets) survive *= 1.0 - cutset_probability(ft, c);
  return 1.0 - survive;
}

std::vector<cutset> minimize_cutsets(std::vector<cutset> sets,
                                     minimize_stats* stats) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());

  // The empty cutset (a constant-failed tree) subsumes everything; the
  // subset scheme below cannot see it because it has no members.
  if (!sets.empty() && sets.front().empty()) return {cutset{}};

  // Dense event universe: cutsets touch only a fraction of the tree's
  // index space, so the bitsets pack the distinct members, in index order
  // (which preserves "first element" == "minimum element").
  std::vector<node_index> universe;
  for (const cutset& c : sets) universe.insert(universe.end(), c.begin(), c.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  const auto dense = [&](node_index e) {
    return static_cast<std::size_t>(
        std::lower_bound(universe.begin(), universe.end(), e) -
        universe.begin());
  };
  if (stats != nullptr) {
    stats->universe_words =
        std::max(stats->universe_words,
                 (universe.size() + packed_bitset::bits_per_word - 1) /
                     packed_bitset::bits_per_word);
  }

  // Candidates arrive in (size, content) order, so every possible subsumer
  // is already kept when its supersets are tested. A kept subset of the
  // candidate necessarily contains some member of the candidate as its
  // *minimum*, so sharding the kept sets under their first member bounds
  // the word-loop subset tests to plausible subsumers only.
  std::vector<cutset> kept;
  std::vector<packed_bitset> kept_bits;
  std::vector<std::vector<std::uint32_t>> by_min(universe.size());
  std::size_t subset_tests = 0;
  packed_bitset cand_bits(universe.size());
  std::vector<std::size_t> cand_dense;
  for (auto& cand : sets) {
    cand_dense.clear();
    for (node_index b : cand) cand_dense.push_back(dense(b));
    for (std::size_t d : cand_dense) cand_bits.set(d);
    bool subsumed = false;
    for (std::size_t d : cand_dense) {
      for (std::uint32_t k : by_min[d]) {
        // Equal-size sets are distinct after dedup, so only strictly
        // smaller kept sets can be proper subsets.
        if (kept[k].size() >= cand.size()) continue;
        ++subset_tests;
        if (kept_bits[k].is_subset_of(cand_bits)) {
          subsumed = true;
          break;
        }
      }
      if (subsumed) break;
    }
    if (!subsumed) {
      by_min[cand_dense.front()].push_back(
          static_cast<std::uint32_t>(kept.size()));
      kept_bits.push_back(cand_bits);
      kept.push_back(std::move(cand));
    }
    for (std::size_t d : cand_dense) cand_bits.reset(d);
  }
  if (stats != nullptr) stats->subset_tests += subset_tests;
  return kept;
}

bool are_minimal_cutsets(const fault_tree& ft,
                         const std::vector<cutset>& sets) {
  std::vector<char> scenario(ft.size(), 0);
  for (const auto& c : sets) {
    for (node_index b : c) {
      if (!ft.is_basic(b)) return false;
      scenario[b] = 1;
    }
    const bool is_cut = ft.fails(ft.top(), scenario);
    bool strictly_minimal = true;
    if (is_cut) {
      // Coherence makes single-removal checks complete: if any proper subset
      // were a cutset, so would be some |C|-1 subset.
      for (node_index b : c) {
        scenario[b] = 0;
        if (ft.fails(ft.top(), scenario)) {
          strictly_minimal = false;
        }
        scenario[b] = 1;
        if (!strictly_minimal) break;
      }
    }
    for (node_index b : c) scenario[b] = 0;
    if (!is_cut || !strictly_minimal) return false;
  }
  return true;
}

std::vector<cutset> minimal_cutsets_brute_force(const fault_tree& ft) {
  const auto events = ft.basic_events();
  require_model(events.size() <= 20,
                "minimal_cutsets_brute_force limited to 20 basic events");
  std::vector<cutset> cuts;
  std::vector<char> scenario(ft.size(), 0);
  const std::size_t combos = std::size_t{1} << events.size();
  for (std::size_t mask = 0; mask < combos; ++mask) {
    cutset c;
    for (std::size_t b = 0; b < events.size(); ++b) {
      scenario[events[b]] = (mask >> b) & 1U ? 1 : 0;
      if (scenario[events[b]]) c.push_back(events[b]);
    }
    std::sort(c.begin(), c.end());
    if (ft.fails(ft.top(), scenario)) cuts.push_back(std::move(c));
  }
  return minimize_cutsets(std::move(cuts));
}

}  // namespace sdft
