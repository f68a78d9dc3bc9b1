#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace sdft::sim {

/// Counter-based stream derivation: an independent xoshiro256** generator
/// keyed by (seed, a, b, c). The coordinates are folded through chained
/// SplitMix64 steps (the same construction Philox uses its rounds for:
/// a keyed bijection over the counter), so
///
///  - distinct tuples give streams with no overlap in practice (a 64-bit
///    keyed permutation: collisions are birthday-bounded, ~1e-6 even for
///    1e7 trajectories), and
///  - a stream depends only on its own coordinates, never on how many
///    other streams were drawn before it.
///
/// This is what makes Monte-Carlo campaigns reproducible at any thread
/// count: trajectory i draws from substream(seed, i) wherever it runs,
/// and splitting replications key their per-stage slots as
/// substream(seed, replication, stage, slot).
inline rng substream(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0) {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ mix64(a + 0x8e9c5f3d9a1b1e35ULL));
  h = mix64(h ^ mix64(b + 0x2545f4914f6cdd1dULL));
  h = mix64(h ^ mix64(c + 0x9e6c63d0876a9a47ULL));
  return rng(h);
}

}  // namespace sdft::sim
