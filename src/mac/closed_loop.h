// Closed-loop rate adaptation study (paper Fig. 18c, section 4.4).
//
// The deployable loop: at each distance the reader runs a short probe
// burst through the *real* PHY pipeline, reads the per-packet SNR
// estimate off the fitted preamble (PacketOutcome::snr_estimate_db), and
// feeds the estimate stream to a RateController. A twin controller fed
// the channel's ground-truth SNR gives the oracle upper bound, and the
// network-wide most-robust option gives the fixed-rate baseline; the gap
// between the three goodput curves is what bench_fig18c reports.
//
// Determinism contract (the PR 2 invariant): probe packet p of point i is
// a pure function of (seed, i, p) via rt::split_seed, and every probe
// writes its estimate into a disjoint pre-sized slot -- so the parallel
// phase is bit-identical at any thread count, and the controller phase is
// serial by construction. Probe workspaces are thread-local and reused,
// so the steady state allocates nothing (the PR 3 invariant).
#pragma once

#include <cmath>
#include <cstdint>
#include <future>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mac/goodput.h"
#include "mac/rate_controller.h"
#include "mac/rate_table.h"
#include "obs/trace.h"
#include "optics/link_budget.h"
#include "runtime/thread_pool.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"

namespace rt::mac {

/// Fast, robust probe configuration: 16-PQAM DSM-4 at 1 ms slots with a
/// 32-slot preamble -- decodes across the study's whole 14..65 dB span,
/// so the probe burst measures SNR rather than losing packets.
[[nodiscard]] inline phy::PhyParams probe_params() {
  phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

/// Payload of each probe packet, and the payload every goodput figure of
/// the study is scored at.
inline constexpr std::size_t kProbePayloadBytes = 8;
inline constexpr std::size_t kGoodputPayloadBytes = 128;

struct ClosedLoopConfig {
  optics::LinkBudget budget = optics::LinkBudget::wide_beam();
  /// Study distances (m); defaults span the wide-beam 65..14 dB range.
  std::vector<double> distances_m = {1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.3};
  phy::PhyParams probe = probe_params();
  int probe_packets = 12;            ///< probe burst length per distance
  RateControllerConfig controller{};
  unsigned threads = 1;              ///< probe-phase workers (1 = serial)
  std::uint64_t seed = 2026;
};

/// One distance point of the study. Every field is data-derived, so two
/// runs of the same config compare bit-identical regardless of threads.
struct ClosedLoopPoint {
  double distance_m = 0.0;
  double snr_true_db = 0.0;
  int probes = 0;
  int probes_lost = 0;
  double mean_estimate_db = 0.0;      ///< over decoded probes
  std::size_t estimated_index = 0;    ///< controller assignment, estimated SNR
  std::size_t oracle_index = 0;       ///< controller assignment, true SNR
  std::uint64_t estimated_switches = 0;
  double goodput_estimated_bps = 0.0; ///< estimated assignment at the TRUE SNR
  double goodput_oracle_bps = 0.0;
  double goodput_baseline_bps = 0.0;  ///< network-wide most-robust option

  friend bool operator==(const ClosedLoopPoint&, const ClosedLoopPoint&) = default;
};

struct ClosedLoopResult {
  std::vector<ClosedLoopPoint> points;
  obs::MetricsRegistry metrics;  ///< probe + controller metrics

  /// Bitwise equality of everything data-derived: the serial-vs-parallel
  /// acceptance check of the bench.
  [[nodiscard]] bool identical(const ClosedLoopResult& o) const {
    return points == o.points && metrics == o.metrics;
  }
};

/// Runs the closed-loop study: parallel probe phase, serial control phase.
[[nodiscard]] inline ClosedLoopResult run_closed_loop_study(const RateTable& table,
                                                            const GoodputModel& model,
                                                            const ClosedLoopConfig& cfg) {
  RT_ENSURE(!cfg.distances_m.empty(), "closed-loop study needs at least one distance");
  RT_ENSURE(cfg.probe_packets >= 1, "closed-loop study needs at least one probe packet");
  ClosedLoopResult out;
  out.points.resize(cfg.distances_m.size());

  // One offline model shared by every probe simulator: the offline step
  // does not depend on distance/SNR (same discipline as the BER sweeps).
  const auto offline =
      sim::train_offline_model(cfg.probe, cfg.probe.tag_config(), {0.0}, 3);

  struct Probe {
    bool found = false;
    double estimate_db = 0.0;
  };
  std::vector<std::vector<Probe>> probes(cfg.distances_m.size());
  for (auto& v : probes) v.resize(static_cast<std::size_t>(cfg.probe_packets));

  // Phase 1: probe bursts, fanned as flat (point, packet-batch) tasks.
  // Each probe lands in its own pre-sized slot, so results are identical
  // at any thread count; per-task metric snapshots merge commutatively.
  const auto point_sim = [&](std::size_t i) {
    sim::ChannelConfig ch;
    ch.snr_override_db = cfg.budget.snr_db_at(cfg.distances_m[i]);
    ch.noise_seed = rt::split_seed(cfg.seed, static_cast<std::uint64_t>(i), 1);
    sim::SimOptions so;
    so.seed = rt::split_seed(cfg.seed, static_cast<std::uint64_t>(i), 0);
    so.offline_yaws_deg = {0.0};
    so.shared_offline_model = offline;
    return sim::LinkSimulator(cfg.probe, cfg.probe.tag_config(), ch, so);
  };
  const unsigned workers = cfg.threads == 0 ? 1 : cfg.threads;
  if (workers <= 1) {
    // run_packet binds ws.obs internally, so the snapshot must come from
    // the workspace recorder -- same discipline as the pool tasks below.
    sim::PacketWorkspace ws;
    for (std::size_t i = 0; i < cfg.distances_m.size(); ++i) {
      const auto sim = point_sim(i);
      ws.obs.clear();
      const obs::ScopedBind bind(ws.obs);
      {
        RT_TRACE_SPAN("closed_loop_probe");
        for (int p = 0; p < cfg.probe_packets; ++p) {
          const auto r =
              sim.run_packet(static_cast<std::uint64_t>(p), kProbePayloadBytes, ws);
          probes[i][static_cast<std::size_t>(p)] = {r.preamble_found, r.snr_estimate_db};
        }
      }
      out.metrics.merge(ws.obs.metrics);
    }
  } else {
    runtime::ThreadPool pool(workers);
    std::vector<std::future<obs::MetricsRegistry>> tasks;
    constexpr int kBatch = 4;
    for (std::size_t i = 0; i < cfg.distances_m.size(); ++i) {
      // The simulator is shared by all batches of its point (run_packet is
      // const and thread-safe); constructing it inside the pool overlaps
      // per-point setup with probing.
      auto sim = std::make_shared<const sim::LinkSimulator>(point_sim(i));
      for (int begin = 0; begin < cfg.probe_packets; begin += kBatch) {
        const int end = std::min(begin + kBatch, cfg.probe_packets);
        tasks.push_back(pool.submit([&probes, &cfg, sim, i, begin, end] {
          static thread_local sim::PacketWorkspace ws;
          ws.obs.clear();
          const obs::ScopedBind bind(ws.obs);
          {
            RT_TRACE_SPAN("closed_loop_probe");
            for (int p = begin; p < end; ++p) {
              const auto r =
                  sim->run_packet(static_cast<std::uint64_t>(p), kProbePayloadBytes, ws);
              probes[i][static_cast<std::size_t>(p)] = {r.preamble_found, r.snr_estimate_db};
            }
          }
          return ws.obs.metrics;
        }));
      }
    }
    for (auto& f : tasks) out.metrics.merge(f.get());
  }

  // Phase 2: serial control loop per point, in packet order -- the
  // controller state is sequential by nature, so it never runs on the
  // pool. The oracle twin sees the ground-truth SNR at the same cadence.
  obs::Recorder control_rec;
  {
    const obs::ScopedBind bind(control_rec);
    const std::size_t baseline_index = table.most_robust_index();
    for (std::size_t i = 0; i < cfg.distances_m.size(); ++i) {
      ClosedLoopPoint& pt = out.points[i];
      pt.distance_m = cfg.distances_m[i];
      pt.snr_true_db = cfg.budget.snr_db_at(pt.distance_m);
      pt.probes = cfg.probe_packets;
      RateController estimated(table, cfg.controller);
      RateController oracle(table, cfg.controller);
      double sum_est = 0.0;
      int decoded = 0;
      for (const Probe& probe : probes[i]) {
        if (!probe.found) {
          ++pt.probes_lost;
          continue;  // a lost probe carries no estimate
        }
        static_cast<void>(estimated.update(probe.estimate_db));
        static_cast<void>(oracle.update(pt.snr_true_db));
        sum_est += probe.estimate_db;
        ++decoded;
      }
      pt.mean_estimate_db = decoded > 0 ? sum_est / decoded : 0.0;
      pt.estimated_index = estimated.current_index();
      pt.oracle_index = oracle.current_index();
      pt.estimated_switches = estimated.switches();
      // All three loops are scored at the TRUE SNR: a mis-estimate that
      // assigns too fast an option pays for it in delivery probability.
      pt.goodput_estimated_bps = model.goodput_bps(table.option(pt.estimated_index),
                                                   pt.snr_true_db, kGoodputPayloadBytes);
      pt.goodput_oracle_bps = model.goodput_bps(table.option(pt.oracle_index), pt.snr_true_db,
                                                kGoodputPayloadBytes);
      pt.goodput_baseline_bps = model.goodput_bps(table.option(baseline_index), pt.snr_true_db,
                                                  kGoodputPayloadBytes);
    }
  }
  out.metrics.merge(control_rec.metrics);
  return out;
}

}  // namespace rt::mac
