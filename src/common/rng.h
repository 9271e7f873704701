// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in RetroTurbo (AWGN, pixel heterogeneity,
// scenario placement, ...) draws from an rt::Rng seeded explicitly, so a
// simulation run is a pure function of its configuration.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/narrow.h"

namespace rt {

/// SplitMix64 finalizer: bijective avalanche mix of a 64-bit word.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Counter-based stream split: the seed of sub-stream (a, b) of `base`.
///
/// A pure function of its inputs, so any task in a parallel run can
/// reconstruct its RNG stream from indices alone -- no shared engine to
/// advance, hence no ordering or thread-count dependence. This is the
/// foundation of the deterministic parallel sweep engine (src/runtime):
/// packet p of BER point i draws from split_seed(point_seed, p, stream).
[[nodiscard]] constexpr std::uint64_t split_seed(std::uint64_t base, std::uint64_t a,
                                                 std::uint64_t b = 0) {
  std::uint64_t h = mix_seed(base);
  h = mix_seed(h ^ mix_seed(a ^ 0xa5a5a5a5a5a5a5a5ULL));
  h = mix_seed(h ^ mix_seed(b ^ 0xc3c3c3c3c3c3c3c3ULL));
  return h;
}

/// Thin wrapper over a 64-bit Mersenne Twister with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal draw scaled to the given sigma and mean.
  [[nodiscard]] double gaussian(double mean = 0.0, double sigma = 1.0) {
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Fair coin / biased coin.
  [[nodiscard]] bool bernoulli(double p = 0.5) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// `n` random payload bits.
  [[nodiscard]] std::vector<std::uint8_t> bits(std::size_t n) {
    // rt-check: alloc-ok (convenience wrapper; the hot path uses fill_bits into a pooled buffer)
    std::vector<std::uint8_t> out(n);
    fill_bits(out);
    return out;
  }

  /// Fills a caller-owned buffer with random bits (same draw order as
  /// bits(), so reusable-workspace callers stay bit-identical).
  void fill_bits(std::span<std::uint8_t> out) {
    for (auto& b : out) b = bernoulli() ? 1 : 0;
  }

  /// `n` random payload bytes.
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = narrow_cast<std::uint8_t>(uniform_int(0, 255));
    return out;
  }

  /// Derives an independent child stream (for per-component seeding).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace rt
