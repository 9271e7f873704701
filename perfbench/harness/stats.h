// Statistics helpers of the benchmark: medians, the tail percentile, rate
// estimates that are never zero, and the stream frame-to-truth matcher.
// Pure functions of their inputs; tests/test_stats.cpp covers them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count; 0 for
/// an empty set).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

/// A tail timing: the value at `percentile` (nearest rank) and how many
/// samples lie beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p` percent of the samples at or below it.
[[nodiscard]] inline double nearest_rank(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest of the conventional percentiles p50/p90/p99/p99.9 that has
/// at least `min_beyond` samples beyond its nearest rank. Falls back to
/// p50 (with the real, smaller `beyond`) when even the median has fewer.
[[nodiscard]] inline Tail tail_percentile(std::vector<double> v, std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t beyond = v.size() - std::clamp<std::size_t>(rank, 1, v.size());
    if (beyond >= min_beyond || p == 50.0) {
      t.percentile = p;
      t.value = nearest_rank(v, p);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

/// Median rate over consecutive windows: durations are cut into windows
/// of `per_window` items (a short last window is dropped unless it is the
/// only one), each window's rate is (sum of `work`) / (sum of seconds),
/// and the median window rate is returned. `work` may be empty (one unit
/// per item).
[[nodiscard]] inline double windowed_rate(std::span<const double> seconds,
                                          std::span<const double> work, std::size_t per_window) {
  std::vector<double> rates;
  per_window = std::max<std::size_t>(per_window, 1);
  for (std::size_t lo = 0; lo < seconds.size(); lo += per_window) {
    const std::size_t hi = std::min(seconds.size(), lo + per_window);
    if (hi - lo < per_window && !rates.empty()) break;
    double s = 0.0;
    double w = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      s += seconds[i];
      w += work.empty() ? 1.0 : work[i];
    }
    if (s > 0.0) rates.push_back(w / s);
  }
  return median(rates);
}

/// Error rate that is never zero: (failures + 1/2) / (attempts + 1), the
/// add-half (Jeffreys) estimate. It equals failures / attempts to within
/// 0.5 / attempts, and a run with no failure reads 0.5 / (attempts + 1).
[[nodiscard]] inline double smoothed_rate(std::uint64_t failures, std::uint64_t attempts) {
  return (static_cast<double>(failures) + 0.5) / (static_cast<double>(attempts) + 1.0);
}

/// Outcome of matching emitted stream frames to the ground truth.
struct FrameMatch {
  /// truth_of[e]: index of the true frame emitted frame e decoded, or -1
  /// when e is a false frame.
  std::vector<std::ptrdiff_t> truth_of;
  std::size_t matched = 0;
  std::size_t missed = 0;        ///< true frames no emitted frame matched
  std::size_t false_frames = 0;  ///< emitted frames that match no true frame
};

/// Matches emitted frames to true frames by start sample, not by arrival
/// order: emitted frame e decodes true frame t when their starts differ by
/// at most `tolerance` samples and t is not matched yet (the nearest such t
/// wins). Both lists must be ascending, as a receiver emits them.
[[nodiscard]] inline FrameMatch match_frames(std::span<const std::uint64_t> emitted,
                                             std::span<const std::uint64_t> truth,
                                             std::uint64_t tolerance) {
  FrameMatch m;
  m.truth_of.assign(emitted.size(), -1);
  std::vector<char> used(truth.size(), 0);
  std::size_t lo = 0;  // first true frame that can still lie within tolerance
  for (std::size_t e = 0; e < emitted.size(); ++e) {
    const std::uint64_t s = emitted[e];
    while (lo < truth.size() && truth[lo] + tolerance < s) ++lo;
    std::ptrdiff_t best = -1;
    std::uint64_t best_d = 0;
    for (std::size_t t = lo; t < truth.size() && truth[t] <= s + tolerance; ++t) {
      if (used[t] != 0) continue;
      const std::uint64_t d = truth[t] > s ? truth[t] - s : s - truth[t];
      if (best < 0 || d < best_d) {
        best = static_cast<std::ptrdiff_t>(t);
        best_d = d;
      }
    }
    if (best >= 0) {
      used[static_cast<std::size_t>(best)] = 1;
      m.truth_of[e] = best;
      ++m.matched;
    } else {
      ++m.false_frames;
    }
  }
  m.missed = truth.size() - m.matched;
  return m;
}

}  // namespace perfbench
