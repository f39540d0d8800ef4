#pragma once
// Deterministic pseudo-random number generation.
//
// pvcbench needs reproducible randomness (pointer-chase permutations,
// injected message drops, the checkpoint/restart Monte Carlo), so
// everything routes through a seedable xoshiro256** generator rather
// than `std::random_device`.  xoshiro256** is small, fast and passes
// BigCrush; see Blackman & Vigna, "Scrambled linear pseudorandom number
// generators" (2021).

#include <array>
#include <cstdint>
#include <limits>

namespace pvc {

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator, so it
/// can feed <random> distributions as well as the helpers below.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so that nearby seeds yield unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fills `indices[0..n)` with a random permutation forming a single cycle
/// (Sattolo's algorithm) — the canonical pointer-chase layout: following
/// `i = indices[i]` visits every element exactly once before returning.
void sattolo_cycle(Rng& rng, std::uint32_t* indices, std::size_t n);

}  // namespace pvc
