#pragma once

#include <cstdint>
#include <limits>

namespace sdft {

/// SplitMix64 output function (Steele, Lea & Flood): a strong 64-bit
/// mixing step in which every output bit depends on every input bit. Used
/// to seed rng, to fold stream coordinates and to finish hash values.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** pseudo-random generator (Blackman & Vigna).
///
/// Deterministic across platforms for a given seed, which the synthetic model
/// generators rely on: a model is fully identified by its parameters + seed.
/// Satisfies the C++ UniformRandomBitGenerator concept.
class rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from `seed` via SplitMix64.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

 private:
  std::uint64_t s_[4];
};

}  // namespace sdft
