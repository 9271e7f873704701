#include "analysis/min_distance.h"

#include <algorithm>
#include <limits>

#include "common/narrow.h"

namespace rt::analysis {

namespace {

double distance_sq_between(const sig::IqWaveform& wa, const sig::IqWaveform& wb, int bits) {
  RT_ENSURE(wa.size() == wb.size(), "emulated lengths differ");
  double d = 0.0;
  for (std::size_t i = 0; i < wa.size(); ++i) d += std::norm(wa[i] - wb[i]);
  // Integrated squared distance over time, per data bit: comparable across
  // schemes with different slot widths and rates.
  return d / wa.sample_rate_hz / static_cast<double>(bits);
}

std::vector<std::uint8_t> word_from_index(std::uint64_t idx, int bits) {
  std::vector<std::uint8_t> w(bits);
  for (int b = 0; b < bits; ++b) w[b] = narrow_cast<std::uint8_t>((idx >> b) & 1ULL);
  return w;
}

}  // namespace

MinDistanceResult min_distance(const LcmTable& table, const Scheme& scheme,
                               double sample_rate_hz, const MinDistanceOptions& options) {
  const int k = scheme.data_bits();
  RT_ENSURE(k >= 1, "scheme must carry at least one bit");
  double best = std::numeric_limits<double>::infinity();

  if (k <= options.exhaustive_bit_limit) {
    const std::uint64_t n = 1ULL << k;
    std::vector<sig::IqWaveform> cache;
    cache.reserve(n);
    for (std::uint64_t a = 0; a < n; ++a)
      cache.push_back(emulate(table, scheme.encode(word_from_index(a, k)), sample_rate_hz));
    for (std::uint64_t a = 0; a < n; ++a)
      for (std::uint64_t b = a + 1; b < n; ++b)
        best = std::min(best, distance_sq_between(cache[a], cache[b], k));
  } else {
    // Neighbour search: in a linear-superposition ISI channel the minimum
    // distance is realized by words differing in few positions. From random
    // base words, explore single flips and pairs of nearby flips.
    Rng rng(options.seed);
    for (int trial = 0; trial < options.random_words; ++trial) {
      const auto base = rng.bits(static_cast<std::size_t>(k));
      const auto wbase = emulate(table, scheme.encode(base), sample_rate_hz);
      for (int i = 0; i < k; ++i) {
        auto w1 = base;
        w1[i] ^= 1;
        const auto wave1 = emulate(table, scheme.encode(w1), sample_rate_hz);
        best = std::min(best, distance_sq_between(wbase, wave1, k));
        const int window = 16;  // nearby-symbol interactions only
        for (int j = i + 1; j < std::min(k, i + window); ++j) {
          auto w2 = w1;
          w2[j] ^= 1;
          const auto wave2 = emulate(table, scheme.encode(w2), sample_rate_hz);
          best = std::min(best, distance_sq_between(wbase, wave2, k));
        }
      }
    }
  }

  MinDistanceResult out;
  out.d = best;
  out.scheme_name = scheme.name();
  out.data_rate_bps = scheme.data_rate_bps();
  return out;
}

}  // namespace rt::analysis
