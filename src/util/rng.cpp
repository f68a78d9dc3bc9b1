#include "util/rng.hpp"

namespace sdft {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  const std::uint64_t z = mix64(x);
  x += 0x9e3779b97f4a7c15ULL;
  return z;
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

rng::rng(std::uint64_t seed) {
  for (auto& word : s_) word = splitmix64(seed);
}

rng::result_type rng::operator()() {
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

double rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t rng::below(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

std::int64_t rng::between(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

bool rng::chance(double p) { return uniform() < p; }

}  // namespace sdft
