// Fig. 13: relative demodulation threshold over the (DSM order, PQAM
// order) grid at a fixed data rate.
//
// Paper shape: neither extreme wins -- pure high-order PQAM (L small) and
// pure DSM (P small) both pay a threshold penalty; a combined middle point
// is best, which is the argument for using DSM and PQAM together.
//
// The map comes from ONE optimize_parameters call (the grid is produced as
// a unit), so this bench stays serial and only adds the JSON report.
#include <cstdio>

#include "analysis/optimizer.h"
#include "bench/bench_util.h"

int main() {
  rt::bench::print_header("Fig. 13 -- relative demodulation threshold map over (L, P)",
                          "section 5.3, Figure 13",
                          "a combined DSM+PQAM point beats both pure extremes");
  rt::bench::BenchReport report("fig13_threshold_map");

  constexpr double kFs = 40e3;
  constexpr double kSlot = 0.5e-3;
  const auto table = rt::analysis::characterize_lcm(
      rt::lcm::LcTimings{}, kSlot, kFs, rt::bench::env_int("RT_BENCH_V", 8));

  const double rate = 4000.0;
  rt::analysis::OptimizerOptions opt;
  opt.dsm_orders = {1, 2, 4, 8, 16};
  opt.bits_per_axis = {1, 2, 3, 4};
  opt.payload_slots = 4;
  opt.min_symbol_duration_s = 0.0;  // show the full map incl. bad corners
  opt.distance.exhaustive_bit_limit = 0;
  opt.distance.random_words = 4;
  rt::obs::Recorder obs_rec;
  const auto res = [&] {
    const rt::obs::ScopedBind obs_bind(obs_rec);
    RT_TRACE_SPAN("threshold_map");
    return rt::analysis::optimize_parameters(table, rate, opt);
  }();
  report.add_obs(obs_rec.snapshot());

  std::printf("\nrelative threshold (dB, 0 = best) at %.0f bps\n", rate);
  std::printf("%-8s", "L \\ P");
  for (const int bits : opt.bits_per_axis) std::printf("%10d", 1 << (2 * bits));
  std::printf("\n");
  for (const int l : opt.dsm_orders) {
    std::printf("%-8d", l);
    char series[16];
    std::snprintf(series, sizeof(series), "L=%d", l);
    for (const int bits : opt.bits_per_axis) {
      bool found = false;
      for (const auto& pt : res.grid) {
        if (pt.dsm_order != l || pt.bits_per_axis != bits) continue;
        report.add_value(series, 1 << (2 * bits), pt.threshold_db_rel);
        std::printf("%10.1f", pt.threshold_db_rel);
        found = true;
        break;
      }
      if (!found) std::printf("%10s", "-");
    }
    std::printf("\n");
  }

  if (res.best) {
    std::printf("\nbest point: L=%d, %d-PQAM, T=%.2f ms\n", res.best->dsm_order,
                1 << (2 * res.best->bits_per_axis), res.best->slot_s * 1e3);
    const bool combined = res.best->dsm_order > 1 && res.best->bits_per_axis >= 1;
    report.add_scalar("best_dsm_order", res.best->dsm_order);
    report.add_scalar("best_pqam_order", 1 << (2 * res.best->bits_per_axis));
    report.add_scalar("best_slot_ms", res.best->slot_s * 1e3);
    report.write();
    std::printf("shape check: optimum combines DSM (L>1) with PQAM: %s\n",
                combined ? "yes" : "NO");
    return combined ? 0 : 1;
  }
  report.write();
  std::printf("no feasible grid point\n");
  return 1;
}
