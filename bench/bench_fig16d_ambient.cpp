// Fig. 16d: BER under different ambient light conditions.
//
// Paper: Day (1000 lux), Night (200 lux), Dark (20 lux) behave
// consistently, because indoor ambient light (i) leaves SNR headroom and
// (ii) photodetects to DC, which the 455 kHz band-pass rejects; only its
// shot noise remains. Expected shape: BER roughly constant across lux.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "optics/ambient.h"

int main() {
  rt::bench::print_header("Fig. 16d -- BER vs ambient light (Dark/Night/Day)",
                          "section 7.2.1, Figure 16d",
                          "BER approximately invariant across 20..1000 lux");
  rt::bench::BenchReport report("fig16d_ambient");

  const auto params = rt::phy::PhyParams::rate_8kbps();
  const auto tag = rt::bench::realistic_tag(params);
  const auto offline = rt::sim::train_offline_model(params, tag);
  struct Condition {
    const char* name;
    double lux;
  };
  const std::vector<Condition> conditions = {{"Dark", 20.0}, {"Night", 200.0}, {"Day", 1000.0}};
  const std::vector<double> distances = {5.0, 7.0};

  std::vector<rt::runtime::SweepPoint> points;
  for (const double d : distances) {
    for (const auto& c : conditions) {
      rt::sim::ChannelConfig ch;
      ch.pose.distance_m = d;
      ch.ambient.illuminance_lux = c.lux;
      ch.noise_seed = static_cast<std::uint64_t>(c.lux + d);
      points.push_back(rt::bench::make_point(params, tag, ch, offline));
    }
  }
  const auto sweep = rt::bench::run_points(points);
  report.add_sweep(sweep);

  std::printf("\n%-10s", "condition");
  for (const auto& c : conditions) std::printf("%16s", c.name);
  std::printf("\n%-10s", "lux");
  for (const auto& c : conditions) std::printf("%16.0f", c.lux);
  std::printf("\n");

  bool consistent = true;
  for (std::size_t di = 0; di < distances.size(); ++di) {
    std::printf("d=%-7.1fm", distances[di]);
    char series[32];
    std::snprintf(series, sizeof(series), "d=%.1fm", distances[di]);
    for (std::size_t ci = 0; ci < conditions.size(); ++ci) {
      const auto& stats = sweep.stats[di * conditions.size() + ci];
      report.add_point(series, conditions[ci].lux, stats);
      std::printf("%16s", rt::bench::ber_str(stats).c_str());
      // Consistency: all conditions below the 1% reliability bar, or
      // within a small factor of each other.
      consistent = consistent && stats.ber() < 0.01;
    }
    std::printf("\n");
  }

  // Mechanism: the DC ambient term is rejected by the passband frontend's
  // band-pass (checked in the frontend tests); here we show the residual
  // shot-noise-driven sigma ratio.
  const double sigma_dark = rt::optics::AmbientLight{20.0}.shot_noise_sigma();
  const double sigma_day = rt::optics::AmbientLight{1000.0}.shot_noise_sigma();
  std::printf("\nambient shot-noise sigma ratio day/dark: %.1fx (DC itself is band-passed out)\n",
              sigma_day / sigma_dark);
  std::printf("paper: consistent behaviour regardless of illumination\n");
  report.add_scalar("shot_sigma_ratio_day_dark", sigma_day / sigma_dark);
  report.write();
  std::printf("shape check: all conditions reliable (BER < 1%%): %s\n",
              consistent ? "yes" : "NO");
  return consistent ? 0 : 1;
}
