#include "analysis/optimizer.h"

#include <cmath>

#include "common/narrow.h"

namespace rt::analysis {

OptimizerResult optimize_parameters(const LcmTable& table, double target_rate_bps,
                                    const OptimizerOptions& options) {
  RT_ENSURE(target_rate_bps > 0.0, "target rate must be positive");
  OptimizerResult out;
  out.target_rate_bps = target_rate_bps;

  const double grid_slot = static_cast<double>(table.slot_samples()) / options.sample_rate_hz;
  for (const int bits : options.bits_per_axis) {
    const int bits_per_symbol = 2 * bits;  // PQAM: both polarization axes
    // T = bits/rate must be an integer number of characterization slots.
    const double t_exact = static_cast<double>(bits_per_symbol) / target_rate_bps;
    const int sps = narrow_cast<int>(std::llround(t_exact / grid_slot));
    if (sps < 1) continue;
    const double t = sps * grid_slot;
    if (std::abs(t - t_exact) / t_exact > 0.01) continue;  // rate not representable
    if (t < kMinSlotS || t > kMaxSlotS) continue;
    for (const int l : options.dsm_orders) {
      const double w = static_cast<double>(l) * t;
      if (w < options.min_symbol_duration_s) continue;  // ISI would exceed the template span
      const DsmPqamScheme scheme(l, bits, grid_slot, sps, true, options.payload_slots);
      const auto md = min_distance(table, scheme, options.sample_rate_hz, options.distance);
      GridPoint pt;
      pt.dsm_order = l;
      pt.bits_per_axis = bits;
      pt.slot_s = t;
      pt.d = md.d;
      out.grid.push_back(pt);
    }
  }

  if (!out.grid.empty()) {
    const GridPoint* best = &out.grid.front();
    for (const auto& pt : out.grid)
      if (pt.d > best->d) best = &pt;
    for (auto& pt : out.grid) pt.threshold_db_rel = relative_threshold_db(pt.d, best->d);
    out.best = *best;
  }
  return out;
}

}  // namespace rt::analysis
