// Waveform-level collision calibration, batched over the pool.
//
// The fleet campaign (fleet/campaign.h) charges cross-cell interference
// as a per-slot corruption probability; this study grounds that model in
// the PHY: it pushes sim::superimpose_tags collisions through the real
// single-tag demodulator across a sweep of interferer gains, measuring
// how hard a concurrent neighbor-cell uplink actually hits BER. This is
// the still-serial sim::multi_tag path ported onto the deterministic
// batch discipline: trial t of gain point i is a pure function of
// (seed, i * trials + t) via sim::collision_slot_seed, every trial lands
// in its own pre-sized slot, and per-task obs snapshots merge in
// submission order -- so serial and N-thread runs are bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bitio.h"
#include "common/error.h"
#include "common/units.h"
#include "mac/closed_loop.h"
#include "obs/trace.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "runtime/batch.h"
#include "sim/link_sim.h"
#include "sim/multi_tag.h"

namespace rt::fleet {

/// The interferer sits 2 m out at a 30 deg roll. Both tags are ideal
/// (PhyParams::tag_config() carries no pixel heterogeneity).
inline constexpr double kInterfererRollRad = deg_to_rad(30.0);

struct CollisionStudyConfig {
  /// Probe-grade PHY (mac::probe_params): decodes cleanly at the study
  /// SNR, so measured degradation is the interferer's doing.
  phy::PhyParams params = mac::probe_params();
  std::vector<double> interferer_gains = {0.0, 0.25, 0.5, 1.0};
  int trials = 4;  ///< payload/noise realizations per gain point
  std::size_t payload_bits = 64;
  double snr_db = 35.0;
  unsigned threads = 1;
  std::uint64_t seed = 99;
};

struct CollisionPoint {
  double interferer_gain = 0.0;
  sim::LinkStats stats;

  friend bool operator==(const CollisionPoint&, const CollisionPoint&) = default;
};

struct CollisionStudyResult {
  std::vector<CollisionPoint> points;
  obs::Snapshot obs;  ///< spans stay empty unless RT_OBS_SPAN_CAPACITY is set

  /// Metrics, not spans: spans carry wall-clock timings.
  [[nodiscard]] bool identical(const CollisionStudyResult& o) const {
    return points == o.points && obs.metrics == o.obs.metrics;
  }
};

/// Runs the gain sweep. Each (gain, trial) task modulates a fresh wanted
/// + interferer payload pair, superimposes them at the trial's noise
/// slot, and demodulates with the unmodified single-tag receiver.
[[nodiscard]] inline CollisionStudyResult run_collision_study(const CollisionStudyConfig& cfg) {
  RT_ENSURE(!cfg.interferer_gains.empty(), "collision study needs at least one gain point");
  RT_ENSURE(cfg.trials >= 1, "collision study needs at least one trial");
  RT_ENSURE(cfg.payload_bits >= 1, "collision study payload cannot be empty");

  // One modulator and one demodulator (with its offline model) serve every
  // trial: both are const stage objects, and each task brings its own
  // workspaces (the same discipline as the BER sweeps: the offline step is
  // gain-independent).
  const phy::Modulator mod(cfg.params);
  const phy::Demodulator demod(cfg.params,
                               sim::train_offline_model(cfg.params, cfg.params.tag_config()));

  CollisionStudyResult out;
  out.points.resize(cfg.interferer_gains.size());
  std::vector<std::vector<sim::LinkStats>> slots(
      cfg.interferer_gains.size(),
      std::vector<sim::LinkStats>(static_cast<std::size_t>(cfg.trials)));

  std::vector<std::function<obs::Snapshot()>> tasks;
  tasks.reserve(cfg.interferer_gains.size() * static_cast<std::size_t>(cfg.trials));
  for (std::size_t i = 0; i < cfg.interferer_gains.size(); ++i) {
    for (int t = 0; t < cfg.trials; ++t) {
      tasks.push_back([&slots, &cfg, &mod, &demod, i, t] {
        return runtime::record_batch([&] {
          RT_TRACE_SPAN("sweep_batch");
          RT_OBS_COUNT(kSweepBatches, 1);
          const phy::PhyParams& p = cfg.params;
          // Global trial id keys the seed slots: stream 0/1 are the two
          // tags' payloads, stream 2 (== tags.size()) the AWGN.
          const std::uint64_t gid =
              static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(cfg.trials) +
              static_cast<std::uint64_t>(t);
          Rng wanted_rng(sim::collision_slot_seed(cfg.seed, gid, 0));
          Rng interferer_rng(sim::collision_slot_seed(cfg.seed, gid, 1));
          const auto bits_a = wanted_rng.bits(cfg.payload_bits);
          const auto bits_b = interferer_rng.bits(cfg.payload_bits);
          phy::ModulatorWorkspace mod_ws;
          phy::PacketSchedule pkt_a;
          phy::PacketSchedule pkt_b;
          mod.modulate_into(bits_a, mod_ws, pkt_a);
          mod.modulate_into(bits_b, mod_ws, pkt_b);
          sim::ConcurrentTag wanted{p.tag_config(), sim::Pose{}, 1.0, pkt_a.firings};
          sim::ConcurrentTag interferer{p.tag_config(),
                                        sim::Pose{2.0, kInterfererRollRad, 0.0},
                                        cfg.interferer_gains[i], pkt_b.firings};
          auto rx = sim::superimpose_tags(p, {wanted, interferer},
                                          pkt_a.duration_s + p.symbol_duration_s(), cfg.snr_db,
                                          sim::collision_slot_seed(cfg.seed, gid, 2));
          phy::DemodOptions opts;
          opts.search_limit = 2 * p.samples_per_slot();
          phy::DemodWorkspace demod_ws;
          phy::DemodResult res;
          demod.demodulate_into(rx, pkt_a.layout.payload_slots, opts, demod_ws, res);
          sim::LinkStats s;
          s.packets = 1;
          s.total_bits = bits_a.size();
          if (!res.preamble_found) {
            s.preamble_failures = 1;
            s.bit_errors = bits_a.size();  // a lost preamble loses the packet
          } else {
            s.bit_errors = hamming_distance(std::span(res.bits).first(bits_a.size()), bits_a);
          }
          slots[i][static_cast<std::size_t>(t)] = s;
        });
      });
    }
  }
  out.obs = runtime::run_deterministic_batches(std::move(tasks), cfg.threads);

  for (std::size_t i = 0; i < cfg.interferer_gains.size(); ++i) {
    out.points[i].interferer_gain = cfg.interferer_gains[i];
    for (const sim::LinkStats& s : slots[i]) out.points[i].stats.merge(s);
  }
  return out;
}

}  // namespace rt::fleet
