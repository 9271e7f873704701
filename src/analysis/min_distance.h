// Minimum-distance analysis and demodulation thresholds (section 5.1/5.3).
//
// The performance index of a modulation scheme is the minimum Euclidean
// distance D between the emulated waveforms of any two distinct data
// words: larger D tolerates more noise, i.e. a lower demodulation
// threshold. Thresholds are reported relative to a reference scheme, as in
// the paper's Fig. 13 / Tab. 3 (the 1 Kbps optimum anchors 0 dB).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/emulator.h"
#include "analysis/scheme.h"
#include "common/rng.h"
#include "common/units.h"

namespace rt::analysis {

struct MinDistanceOptions {
  /// Exhaustive pair enumeration up to this many data bits (2^k words);
  /// beyond it a neighbour search compares words differing in one or two
  /// nearby positions (the minimum distance of an ISI constellation is
  /// realized by low-Hamming-weight differences).
  int exhaustive_bit_limit = 10;
  /// Random restarts for the neighbour search.
  int random_words = 8;
  std::uint64_t seed = 1;
};

struct MinDistanceResult {
  double d = 0.0;               ///< minimum squared-distance per bit (energy units)
  std::string scheme_name;
  double data_rate_bps = 0.0;
};

/// Minimum distance D of a scheme under the given LCM table.
[[nodiscard]] MinDistanceResult min_distance(const LcmTable& table, const Scheme& scheme,
                                             double sample_rate_hz,
                                             const MinDistanceOptions& options = {});

/// Demodulation threshold (dB) of a scheme relative to a reference D
/// (threshold = 10 log10 (d_ref / d); the reference scheme is 0 dB).
[[nodiscard]] inline double relative_threshold_db(double d, double d_ref) {
  RT_ENSURE(d > 0.0 && d_ref > 0.0, "distances must be positive");
  return rt::to_db(d_ref / d);
}

}  // namespace rt::analysis
