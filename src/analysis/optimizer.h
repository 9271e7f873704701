// Optimal (L, P) parameter search for a target data rate (section 5.3).
//
// For a target rate R the slot duration follows from the PQAM order
// (T = log2(P) / R), so the search space is the (L, P) grid; each point is
// scored by its minimum distance under the LCM emulation, and the best
// combination gives the scheme actually used at that rate (Tab. 3).
#pragma once

#include <optional>
#include <vector>

#include "analysis/min_distance.h"
#include "analysis/scheme.h"

namespace rt::analysis {

struct GridPoint {
  int dsm_order = 0;
  int bits_per_axis = 0;
  double slot_s = 0.0;
  double d = 0.0;
  double threshold_db_rel = 0.0;  ///< relative to the grid's best D
};

/// Slot durations T outside [kMinSlotS, kMaxSlotS] are not searched.
inline constexpr double kMinSlotS = 0.1e-3;
inline constexpr double kMaxSlotS = 8.0e-3;

struct OptimizerOptions {
  std::vector<int> dsm_orders = {1, 2, 4, 8, 16};
  std::vector<int> bits_per_axis = {1, 2, 3, 4};
  /// W = L*T must cover at least this much discharge time or the scheme is
  /// dominated by uncontrolled ISI; points violating it are skipped.
  double min_symbol_duration_s = 3.0e-3;
  double sample_rate_hz = 40e3;
  MinDistanceOptions distance{};
  int payload_slots = 0;  ///< 0 = scheme default
};

struct OptimizerResult {
  std::vector<GridPoint> grid;        ///< all evaluated points
  std::optional<GridPoint> best;      ///< max-D point
  double target_rate_bps = 0.0;
};

/// Evaluates every (L, P) combination achieving `target_rate_bps` and
/// returns the grid with the best point marked.
[[nodiscard]] OptimizerResult optimize_parameters(const LcmTable& table, double target_rate_bps,
                                                  const OptimizerOptions& options = {});

}  // namespace rt::analysis
