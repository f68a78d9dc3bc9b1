#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdft {

/// A word-packed fixed-width bitvector for the set-heavy cutset kernels.
///
/// Cutset subsumption and the per-event index ask the same questions —
/// "is a a subset of b?", "do a and b intersect?", "are a and b equal?" —
/// over small integer sets. Sorted vectors answer
/// them element-by-element; packing the sets into 64-bit words answers
/// them word-by-word ((a & ~b) == 0 for the subset test), which is what
/// storm's BitVector does for exactly these workloads. The width is fixed
/// at construction; all bit positions must be < size(). Bits above size()
/// in the last word are kept zero, so whole-word operations (count,
/// equality) never see junk.
class packed_bitset {
 public:
  using word = std::uint64_t;
  static constexpr std::size_t bits_per_word = 64;

  packed_bitset() = default;

  /// A bitset of `num_bits` bits, all zero. Width 0 is a valid empty set.
  explicit packed_bitset(std::size_t num_bits)
      : bits_(num_bits), words_((num_bits + bits_per_word - 1) / bits_per_word,
                                word{0}) {}

  std::size_t size() const { return bits_; }
  std::size_t num_words() const { return words_.size(); }

  void set(std::size_t i) { words_[i >> 6] |= word{1} << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(word{1} << (i & 63)); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & word{1};
  }

  /// Zeroes every bit, keeping the width.
  void clear() {
    for (word& w : words_) w = 0;
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t n = 0;
    for (word w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  bool none() const {
    for (word w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  bool any() const { return !none(); }

  /// In-place intersection / union with an equal-width bitset.
  packed_bitset& operator&=(const packed_bitset& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }
  packed_bitset& operator|=(const packed_bitset& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  friend packed_bitset operator&(packed_bitset a, const packed_bitset& b) {
    a &= b;
    return a;
  }
  friend packed_bitset operator|(packed_bitset a, const packed_bitset& b) {
    a |= b;
    return a;
  }

  /// True iff every bit of *this is set in `other` (equal widths). The
  /// word loop (a & ~b) == 0 is the packed form of std::includes and the
  /// hot test of cutset subsumption.
  bool is_subset_of(const packed_bitset& other) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~other.words_[i]) != 0) return false;
    }
    return true;
  }

  /// True iff *this and `other` share at least one bit (equal widths).
  bool intersects(const packed_bitset& other) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  bool operator==(const packed_bitset& other) const {
    return bits_ == other.bits_ && words_ == other.words_;
  }

  /// Calls fn(i) for every set bit i, in increasing order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      word w = words_[wi];
      while (w != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(w));
        fn(wi * bits_per_word + bit);
        w &= w - 1;
      }
    }
  }

 private:
  std::size_t bits_ = 0;
  std::vector<word> words_;
};

}  // namespace sdft
