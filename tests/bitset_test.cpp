// Property and differential tests of the packed-bitset cutset kernel:
// exhaustive word-boundary checks of packed_bitset, randomized differential
// runs against a std::set<int> oracle, and seeded cutset-family minimize
// runs asserting the packed minimize_cutsets() is bit-identical both to the
// pre-packing counting implementation (testing::minimize_cutsets_reference)
// and to a direct O(n^2) std::includes oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "mcs/cutset.hpp"
#include "minimize_reference.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace sdft {
namespace {

using testing::minimize_cutsets_reference;

// Widths straddling the 64-bit word boundaries; 0 is the valid empty set.
const std::size_t kBoundaryWidths[] = {0, 1, 63, 64, 65, 128};

TEST(PackedBitset, StartsEmptyAtEveryBoundaryWidth) {
  for (const std::size_t width : kBoundaryWidths) {
    const packed_bitset b(width);
    EXPECT_EQ(b.size(), width);
    EXPECT_EQ(b.num_words(), (width + 63) / 64);
    EXPECT_EQ(b.count(), 0u);
    EXPECT_TRUE(b.none());
    EXPECT_FALSE(b.any());
    for (std::size_t i = 0; i < width; ++i) EXPECT_FALSE(b.test(i));
  }
}

TEST(PackedBitset, SetTestResetEveryBitAtEveryBoundaryWidth) {
  for (const std::size_t width : kBoundaryWidths) {
    packed_bitset b(width);
    for (std::size_t i = 0; i < width; ++i) {
      b.set(i);
      EXPECT_TRUE(b.test(i)) << "width " << width << " bit " << i;
      EXPECT_EQ(b.count(), i + 1);
    }
    EXPECT_EQ(b.count(), width);
    for (std::size_t i = 0; i < width; ++i) {
      b.reset(i);
      EXPECT_FALSE(b.test(i)) << "width " << width << " bit " << i;
    }
    EXPECT_TRUE(b.none());
  }
}

TEST(PackedBitset, LastWordBitsStayIsolatedAcrossTheBoundary) {
  // Setting the first bit of word 1 must not disturb word 0 and vice versa.
  packed_bitset b(65);
  b.set(63);
  b.set(64);
  EXPECT_EQ(b.count(), 2u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(64);
  EXPECT_TRUE(b.none());
}

TEST(PackedBitset, SubsetIntersectAndEqualityBasics) {
  for (const std::size_t width : kBoundaryWidths) {
    packed_bitset empty(width);
    packed_bitset full(width);
    for (std::size_t i = 0; i < width; ++i) full.set(i);
    EXPECT_TRUE(empty.is_subset_of(full));
    EXPECT_TRUE(empty.is_subset_of(empty));
    EXPECT_TRUE(full.is_subset_of(full));
    EXPECT_FALSE(empty.intersects(full));
    if (width > 0) {
      EXPECT_FALSE(full.is_subset_of(empty));
      EXPECT_TRUE(full.intersects(full));
    }
    EXPECT_EQ(empty == full, width == 0);
  }
}

TEST(PackedBitset, ClearKeepsWidth) {
  packed_bitset b(65);
  b.set(0);
  b.set(64);
  b.clear();
  EXPECT_EQ(b.size(), 65u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b, packed_bitset(65));
}

TEST(PackedBitset, ForEachSetVisitsBitsInIncreasingOrder) {
  packed_bitset b(128);
  const std::vector<std::size_t> bits = {0, 1, 62, 63, 64, 65, 100, 127};
  for (std::size_t i : bits) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
}

/// The oracle model of a packed_bitset: a std::set of positions.
using oracle_set = std::set<std::size_t>;

oracle_set to_oracle(const packed_bitset& b) {
  oracle_set out;
  b.for_each_set([&](std::size_t i) { out.insert(i); });
  return out;
}

TEST(PackedBitset, RandomizedDifferentialAgainstSetOracle) {
  rng gen(0xb17);
  for (const std::size_t width : {1, 63, 64, 65, 128, 200}) {
    for (int round = 0; round < 40; ++round) {
      packed_bitset a(width);
      packed_bitset b(width);
      oracle_set oa;
      oracle_set ob;
      const std::size_t ops = 3 * width / 2 + 4;
      for (std::size_t step = 0; step < ops; ++step) {
        const std::size_t i = gen.below(width);
        if (gen.below(3) == 0) {
          a.reset(i);
          oa.erase(i);
        } else {
          a.set(i);
          oa.insert(i);
        }
        const std::size_t j = gen.below(width);
        if (gen.below(3) == 0) {
          b.reset(j);
          ob.erase(j);
        } else {
          b.set(j);
          ob.insert(j);
        }
      }
      // Point queries and aggregates.
      EXPECT_EQ(to_oracle(a), oa);
      EXPECT_EQ(to_oracle(b), ob);
      EXPECT_EQ(a.count(), oa.size());
      EXPECT_EQ(a.none(), oa.empty());
      for (std::size_t i = 0; i < width; ++i) {
        EXPECT_EQ(a.test(i), oa.count(i) == 1);
      }
      // Relational queries.
      EXPECT_EQ(a.is_subset_of(b),
                std::includes(ob.begin(), ob.end(), oa.begin(), oa.end()));
      EXPECT_EQ(b.is_subset_of(a),
                std::includes(oa.begin(), oa.end(), ob.begin(), ob.end()));
      oracle_set inter;
      std::set_intersection(oa.begin(), oa.end(), ob.begin(), ob.end(),
                            std::inserter(inter, inter.begin()));
      EXPECT_EQ(a.intersects(b), !inter.empty());
      EXPECT_EQ(a == b, oa == ob);
      // Bitwise composites against their set-algebra images.
      EXPECT_EQ(to_oracle(a & b), inter);
      oracle_set uni;
      std::set_union(oa.begin(), oa.end(), ob.begin(), ob.end(),
                     std::inserter(uni, uni.begin()));
      EXPECT_EQ(to_oracle(a | b), uni);
    }
  }
}

/// Direct quadratic subsumption oracle: keep a set iff no *other* distinct
/// set (appearing anywhere in the family) is a proper subset of it, then
/// order canonically. Slow but obviously correct.
std::vector<cutset> minimize_by_includes(std::vector<cutset> sets) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<cutset> kept;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    bool subsumed = false;
    for (std::size_t j = 0; j < sets.size() && !subsumed; ++j) {
      subsumed = j != i && sets[j].size() < sets[i].size() &&
                 std::includes(sets[i].begin(), sets[i].end(),
                               sets[j].begin(), sets[j].end());
    }
    if (!subsumed) kept.push_back(sets[i]);
  }
  return kept;
}

/// A random redundant cutset family: base sets plus supersets, duplicates
/// and permuted copies, over a sparse event universe (sparse indices make
/// the dense-universe packing work for its result).
std::vector<cutset> random_family(rng& gen, std::size_t base_sets,
                                  std::size_t universe, std::size_t stride) {
  std::vector<cutset> out;
  for (std::size_t s = 0; s < base_sets; ++s) {
    cutset c;
    const std::size_t len = 1 + gen.below(4);
    for (std::size_t i = 0; i < len; ++i) {
      c.push_back(static_cast<node_index>(gen.below(universe) * stride));
    }
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    out.push_back(c);
    // Supersets of c (must be subsumed) and a duplicate of c.
    const std::size_t copies = gen.below(3);
    for (std::size_t d = 0; d < copies; ++d) {
      cutset super = c;
      super.push_back(static_cast<node_index>(gen.below(universe) * stride));
      std::sort(super.begin(), super.end());
      super.erase(std::unique(super.begin(), super.end()), super.end());
      out.push_back(std::move(super));
    }
    if (gen.below(2) == 0) out.push_back(c);
  }
  return out;
}

TEST(MinimizeCutsets, DifferentialAgainstReferenceAndIncludesOracle) {
  // 1200 seeded families; the packed implementation must agree with the
  // pre-PR counting implementation bit for bit, and (on the smaller
  // families) with the direct quadratic oracle.
  rng gen(0x3b9);
  for (int family = 0; family < 1200; ++family) {
    const std::size_t base = 1 + gen.below(12);
    const std::size_t universe = 2 + gen.below(40);
    const std::size_t stride = 1 + gen.below(9);  // sparse event indices
    std::vector<cutset> sets = random_family(gen, base, universe, stride);
    minimize_stats stats;
    const std::vector<cutset> packed = minimize_cutsets(sets, &stats);
    const std::vector<cutset> reference = minimize_cutsets_reference(sets);
    ASSERT_EQ(packed, reference) << "family " << family;
    ASSERT_EQ(packed, minimize_by_includes(sets)) << "family " << family;
    // Output is canonical: sorted by (size, content), no duplicates.
    for (std::size_t i = 1; i < packed.size(); ++i) {
      const bool ordered =
          packed[i - 1].size() != packed[i].size()
              ? packed[i - 1].size() < packed[i].size()
              : packed[i - 1] < packed[i];
      ASSERT_TRUE(ordered) << "family " << family;
    }
    ASSERT_LE(stats.universe_words,
              (40 * 9 + packed_bitset::bits_per_word - 1) /
                  packed_bitset::bits_per_word);
  }
}

TEST(MinimizeCutsets, EmptyFamilyAndEmptySet) {
  EXPECT_TRUE(minimize_cutsets({}).empty());
  // The empty cutset subsumes everything (constant-failed tree).
  const std::vector<cutset> sets = {{1, 2}, {}, {3}};
  const std::vector<cutset> expect = {{}};
  EXPECT_EQ(minimize_cutsets(sets), expect);
  EXPECT_EQ(minimize_cutsets_reference(sets), expect);
}

TEST(MinimizeCutsets, CountsSubsetTests) {
  // {1} keeps, {1,2} tests against {1} and is subsumed.
  minimize_stats stats;
  const std::vector<cutset> out =
      minimize_cutsets({{1}, {1, 2}}, &stats);
  EXPECT_EQ(out, std::vector<cutset>{{1}});
  EXPECT_EQ(stats.subset_tests, 1u);
  EXPECT_EQ(stats.universe_words, 1u);
}

}  // namespace
}  // namespace sdft
