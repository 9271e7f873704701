// Fleet-scale MAC inventory: goodput, discovery latency and collision
// rate versus tag population and reader count.
//
// Scales the paper's section 7.3 network study (n ~ 8 tags, one reader)
// to deployment size with src/fleet: sharded TDMA inventory across
// readers with overlapping coverage, cross-reader slot scheduling
// (coordinated = colored, collision-free, 1/colors airtime versus
// uncoordinated = full airtime, cross-cell corruption), and one
// RateController per reader adapting its cell to the shard's worst SNR.
// The waveform-level collision calibration study (fleet/collision.h)
// grounds the campaign's corruption model in the real PHY pipeline.
//
// Gates (exit non-zero when violated):
//   - coordinated schedules register exactly zero cross-cell collisions,
//     uncoordinated overlapping cells register more than zero
//   - the campaign and the collision study are bit-identical serial vs.
//     N-thread (the PR 2 determinism contract at fleet scale)
//   - an equal-power concurrent tag degrades BER by >= 10x over clean
//
// Knobs: RT_FLEET_TAGS (default 1000), RT_FLEET_READERS (default 4),
// RT_BENCH_THREADS. CI runs the smoke scale (64 tags, 2 readers); a
// 10k-tag overnight run is RT_FLEET_TAGS=10000 with epochs/rounds raised
// in fleet::FleetConfig.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/campaign.h"
#include "fleet/collision.h"

namespace {

rt::fleet::FleetConfig fleet_config(int readers, int tags, bool coordinate, unsigned threads) {
  rt::fleet::FleetConfig cfg;
  cfg.deployment.readers = readers;
  cfg.deployment.tags = tags;
  cfg.coordinate_readers = coordinate;
  cfg.threads = threads;
  cfg.seed = 2026;
  return cfg;
}

void print_run(const char* label, const rt::fleet::FleetResult& r) {
  std::printf("%-24s %8llu %10.1f %8.3f %9.3f %7.2f %7u\n", label,
              static_cast<unsigned long long>(r.slots), r.fleet_goodput_bps / 1000.0,
              r.delivery_rate, r.collision_rate, r.mean_discovery_rounds, r.num_colors);
}

}  // namespace

int main() {
  rt::bench::print_header(
      "Fleet inventory -- sharded TDMA across readers at deployment scale",
      "section 7.3 scaled out (ROADMAP: fleet-scale MAC)",
      "coordination trades airtime for zero cross-cell collisions; "
      "goodput scales with readers; serial == N-thread bit-identical");
  rt::bench::BenchReport report("fleet_inventory");

  const int tags = rt::bench::env_int("RT_FLEET_TAGS", 1000);
  const int readers = std::max(1, rt::bench::env_int("RT_FLEET_READERS", 4));
  const unsigned threads = rt::bench::bench_threads();
  const auto table = rt::mac::RateTable::paper_default();
  const rt::mac::GoodputModel model;
  int failures = 0;

  // Part 1: population sweep at the full reader count, coordinated vs
  // uncoordinated. Every campaign result is folded into the obs artifact
  // set (sweep_batch / fleet_discovery / fleet_merge spans + counters).
  std::printf("\n%-24s %8s %10s %8s %9s %7s %7s\n", "campaign", "slots", "kbps", "deliver",
              "collide", "disc", "colors");
  std::vector<int> populations = {std::max(1, tags / 4), std::max(1, tags / 2), tags};
  populations.erase(std::unique(populations.begin(), populations.end()), populations.end());
  rt::fleet::FleetResult full_coordinated;
  for (const int pop : populations) {
    for (const bool coordinate : {true, false}) {
      const auto cfg = fleet_config(readers, pop, coordinate, threads);
      const auto r = rt::fleet::run_fleet_campaign(table, model, cfg);
      char label[64];
      std::snprintf(label, sizeof(label), "%d tags %s", pop,
                    coordinate ? "coordinated" : "uncoordinated");
      print_run(label, r);
      const char* mode = coordinate ? "coordinated" : "uncoordinated";
      report.add_value(std::string("goodput_bps_") + mode, pop, r.fleet_goodput_bps);
      report.add_value(std::string("collision_rate_") + mode, pop, r.collision_rate);
      report.add_value(std::string("discovery_rounds_") + mode, pop, r.mean_discovery_rounds);
      report.add_obs(r.obs);
      if (coordinate && r.cross_collisions != 0) {
        std::printf("FAIL: coordinated schedule registered %llu cross-cell collisions\n",
                    static_cast<unsigned long long>(r.cross_collisions));
        ++failures;
      }
      if (!coordinate && readers > 1 && r.cross_collisions == 0) {
        std::printf("FAIL: uncoordinated overlapping cells registered no collisions\n");
        ++failures;
      }
      if (coordinate && pop == tags) full_coordinated = r;
    }
  }

  // Part 2: reader-count sweep at the full population (coordinated).
  // More readers shrink the shards (more airtime per tag) faster than
  // coloring splits the frame, so fleet goodput should not collapse.
  std::printf("\n%-24s %8s %10s %8s %9s %7s %7s\n", "reader sweep", "slots", "kbps", "deliver",
              "collide", "disc", "colors");
  for (int rc = 1; rc <= readers; ++rc) {
    const auto cfg = fleet_config(rc, tags, true, threads);
    const auto r = rt::fleet::run_fleet_campaign(table, model, cfg);
    char label[64];
    std::snprintf(label, sizeof(label), "%d readers", rc);
    print_run(label, r);
    report.add_value("goodput_bps_vs_readers", rc, r.fleet_goodput_bps);
    report.add_value("discovery_rounds_vs_readers", rc, r.mean_discovery_rounds);
    report.add_obs(r.obs);
  }

  // Part 3: the determinism gate. The full-scale campaign re-run serial
  // must be bit-identical to the pooled run from part 1.
  {
    auto cfg = fleet_config(readers, tags, true, 1);
    const auto serial = rt::fleet::run_fleet_campaign(table, model, cfg);
    if (!serial.identical(full_coordinated)) {
      std::printf("FAIL: fleet campaign serial != %u-thread\n", threads);
      ++failures;
    } else {
      std::printf("\ndeterminism: serial == %u-thread campaign (bit-identical)\n", threads);
    }
    report.add_scalar("fleet_goodput_bps", serial.fleet_goodput_bps);
    report.add_scalar("fleet_colors", serial.num_colors);
    report.add_scalar("mean_discovery_rounds", serial.mean_discovery_rounds);
  }

  // Part 4: waveform-level collision calibration (fixed scale regardless
  // of the fleet knobs, so the committed metrics baseline stays stable).
  {
    rt::fleet::CollisionStudyConfig ccfg;
    ccfg.interferer_gains = {0.0, 0.5, 1.0};
    ccfg.trials = 2;
    ccfg.threads = 1;
    const auto serial = rt::fleet::run_collision_study(ccfg);
    ccfg.threads = threads;
    const auto pooled = rt::fleet::run_collision_study(ccfg);
    if (!serial.identical(pooled)) {
      std::printf("FAIL: collision study serial != %u-thread\n", threads);
      ++failures;
    }
    std::printf("\n%-18s %10s %12s\n", "interferer gain", "BER", "pkt loss");
    for (const auto& p : pooled.points) {
      std::printf("%-18.2f %10s %12.2f\n", p.interferer_gain,
                  rt::bench::ber_str(p.stats).c_str(), p.stats.packet_loss());
      report.add_point("collision_ber", p.interferer_gain, p.stats);
    }
    const double clean = pooled.points.front().stats.ber();
    const double collided = pooled.points.back().stats.ber();
    if (collided <= 10.0 * std::max(clean, 0.005)) {
      std::printf("FAIL: equal-power collision did not degrade the link (%.4f vs %.4f)\n",
                  collided, clean);
      ++failures;
    }
    report.add_obs(pooled.obs);
  }

  report.write();
  if (failures > 0) std::printf("\n%d gate(s) FAILED\n", failures);
  return failures == 0 ? 0 : 1;
}
