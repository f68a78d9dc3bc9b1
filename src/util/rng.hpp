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

  // The two draws below are defined inline: a sampling loop that keeps
  // its generator in a local can then hold the four state words in
  // registers instead of storing and reloading them around every call.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace sdft
