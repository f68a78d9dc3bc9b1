#include "util/rng.hpp"

namespace sdft {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  const std::uint64_t z = mix64(x);
  x += 0x9e3779b97f4a7c15ULL;
  return z;
}

}  // namespace

rng::rng(std::uint64_t seed) {
  for (auto& word : s_) word = splitmix64(seed);
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
