// Fig. 18c: link-aware rate adaptation in a networked deployment.
//
// Part 1 (paper headline): tags uniformly placed 1..4.3 m from a
// 50deg-FoV reader (65..14 dB SNR per the fitted link budget); the reader
// assigns each tag its best (rate, coding) pair versus a baseline where
// every tag runs the rate the worst tag needs. Mean throughput gain grows
// from ~1.2x at 4 tags to ~3.7x at 100 tags over 100 trials. The study
// threads one Rng through all trials (each trial's placement draw depends
// on the previous), so it stays serial; the 8-tag run also reports the
// per-tag telemetry (discovery round, assigned rate, ARQ retries).
//
// Part 2 (closed loop): the deployable version of the same assignment --
// the reader probes each distance through the real PHY pipeline, reads
// the SNR estimate off the fitted preamble, and drives a hysteresis
// RateController. Reported side by side with a twin controller fed the
// ground-truth SNR (oracle) and the fixed most-robust baseline. The probe
// phase runs once serial and once on the thread pool and the two results
// must be bit-identical (the PR 2 determinism contract).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mac/closed_loop.h"
#include "mac/network.h"

int main() {
  rt::bench::print_header("Fig. 18c -- rate-adaptive MAC throughput gain vs tag count",
                          "section 7.3, Figure 18c",
                          "gain ~1.2x at 4 tags rising toward ~3.7x at 100 tags; "
                          "estimated-SNR loop tracks the oracle loop");
  rt::bench::BenchReport report("fig18c_rate_adaptation");

  const auto table = rt::mac::RateTable::paper_default();
  const rt::mac::GoodputModel model;
  rt::mac::NetworkStudyConfig cfg;
  cfg.trials = rt::bench::env_int("RT_BENCH_TRIALS", 100);
  rt::Rng rng(2020);

  const std::vector<int> tag_counts = {1, 2, 4, 8, 16, 32, 64, 100};
  std::printf("\n%-8s %-16s %-16s %-8s %-12s\n", "tags", "adaptive (Kbps)", "baseline (Kbps)",
              "gain", "disc rounds");
  rt::obs::Recorder obs_rec;
  const rt::obs::ScopedBind obs_bind(obs_rec);
  std::vector<double> gains;
  std::vector<rt::mac::TagTelemetry> per_tag_8;
  for (const int n : tag_counts) {
    RT_TRACE_SPAN("rate_adaptation_trials");
    const auto r = rt::mac::rate_adaptation_study(n, table, model, cfg, rng);
    gains.push_back(r.gain());
    if (n == 8) per_tag_8 = r.per_tag;
    report.add_value("adaptive_bps", n, r.mean_adaptive_bps);
    report.add_value("baseline_bps", n, r.mean_baseline_bps);
    report.add_value("gain", n, r.gain());
    std::printf("%-8d %-16.2f %-16.2f %-8.2f %-12.1f\n", n, r.mean_adaptive_bps / 1000.0,
                r.mean_baseline_bps / 1000.0, r.gain(), r.mean_discovery_rounds);
  }

  // Per-tag telemetry of the 8-tag network (tag id is just an index; the
  // spread across ids shows the counters separate per tag, not that any
  // id is special -- placements are re-drawn every trial).
  std::printf("\nper-tag telemetry (8 tags, %d trials):\n", cfg.trials);
  std::printf("%-6s %-12s %-14s %-12s %-10s\n", "tag", "disc round", "assigned idx",
              "arq retries", "delivery");
  for (std::size_t i = 0; i < per_tag_8.size(); ++i) {
    const auto& t = per_tag_8[i];
    std::printf("%-6zu %-12.2f %-14.2f %-12zu %-10.3f\n", i, t.mean_discovery_round(),
                t.mean_assigned_index(), static_cast<std::size_t>(t.arq_retries),
                t.delivery_rate());
    const double x = static_cast<double>(i);
    report.add_value("tag_mean_discovery_round", x, t.mean_discovery_round());
    report.add_value("tag_mean_assigned_index", x, t.mean_assigned_index());
    report.add_value("tag_arq_retries", x, static_cast<double>(t.arq_retries));
    report.add_value("tag_delivery_rate", x, t.delivery_rate());
  }

  // Part 2: closed loop on estimated SNR, serial vs parallel.
  rt::mac::ClosedLoopConfig loop_cfg;
  loop_cfg.probe_packets = rt::bench::env_int("RT_BENCH_PROBES", 12);
  loop_cfg.threads = 1;
  const auto serial = rt::mac::run_closed_loop_study(table, model, loop_cfg);
  loop_cfg.threads = rt::bench::bench_threads();
  const auto parallel = rt::mac::run_closed_loop_study(table, model, loop_cfg);
  const bool identical = serial.identical(parallel);

  std::printf("\nclosed loop (probe burst %d packets/distance):\n", loop_cfg.probe_packets);
  std::printf("%-8s %-10s %-10s %-9s %-14s %-14s %-14s\n", "dist(m)", "SNR(dB)", "est(dB)",
              "lost", "est (Kbps)", "oracle (Kbps)", "baseline (Kbps)");
  bool estimated_beats_baseline = true;
  double sum_abs_err = 0.0;
  double sum_ratio = 0.0;
  for (const auto& pt : serial.points) {
    std::printf("%-8.2f %-10.2f %-10.2f %-9d %-14.3f %-14.3f %-14.3f\n", pt.distance_m,
                pt.snr_true_db, pt.mean_estimate_db, pt.probes_lost,
                pt.goodput_estimated_bps / 1000.0, pt.goodput_oracle_bps / 1000.0,
                pt.goodput_baseline_bps / 1000.0);
    report.add_value("snr_true_db", pt.distance_m, pt.snr_true_db);
    report.add_value("snr_estimated_db", pt.distance_m, pt.mean_estimate_db);
    report.add_value("goodput_estimated_bps", pt.distance_m, pt.goodput_estimated_bps);
    report.add_value("goodput_oracle_bps", pt.distance_m, pt.goodput_oracle_bps);
    report.add_value("goodput_baseline_bps", pt.distance_m, pt.goodput_baseline_bps);
    estimated_beats_baseline =
        estimated_beats_baseline && pt.goodput_estimated_bps >= pt.goodput_baseline_bps;
    sum_abs_err += std::abs(pt.mean_estimate_db - pt.snr_true_db);
    sum_ratio += pt.goodput_oracle_bps > 0.0 ? pt.goodput_estimated_bps / pt.goodput_oracle_bps
                                             : 1.0;
  }
  const double n_pts = static_cast<double>(serial.points.size());
  const double mean_abs_err = sum_abs_err / n_pts;
  const double est_over_oracle = sum_ratio / n_pts;
  std::printf("serial == %u-thread rerun: %s; mean |est-true| = %.2f dB; "
              "estimated/oracle goodput = %.3f\n",
              loop_cfg.threads, identical ? "bit-identical" : "MISMATCH", mean_abs_err,
              est_over_oracle);

  std::printf("\npaper: 1.2x at 4 tags, up to 3.7x at 100 tags\n");
  const double gain4 = gains[2];
  const double gain100 = gains.back();
  bool growing = true;
  for (std::size_t i = 2; i < gains.size(); ++i) growing = growing && gains[i] >= gains[i - 1] - 0.15;
  const bool ok = gain4 > 1.0 && gain100 > 2.0 && gain100 > gain4 && growing && identical &&
                  estimated_beats_baseline && est_over_oracle > 0.8;
  report.add_scalar("gain_4_tags", gain4);
  report.add_scalar("gain_100_tags", gain100);
  report.add_scalar("closed_loop_identical", identical ? 1.0 : 0.0);
  report.add_scalar("closed_loop_mean_abs_estimate_error_db", mean_abs_err);
  report.add_scalar("closed_loop_estimated_over_oracle", est_over_oracle);
  report.add_scalar("closed_loop_estimated_beats_baseline", estimated_beats_baseline ? 1.0 : 0.0);
  report.add_obs(obs_rec.snapshot());
  report.add_obs(serial.obs);
  report.write();
  std::printf("shape check: gain(4)=%.2f > 1, gain(100)=%.2f >> gain(4), growing, closed loop "
              "identical + est>=baseline at every distance: %s\n",
              gain4, gain100, ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
