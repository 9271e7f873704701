// Fleet inventory campaign: sharded TDMA across readers, in parallel.
//
// The paper's network study (section 7.3) stops at n ~ 8 tags on one
// reader; this module scales the same MAC machinery to deployment size:
// thousands of tags partitioned into per-reader shards
// (fleet/geometry.h), a cross-reader slot schedule (fleet/scheduler.h),
// and one mac::RateController per reader adapting its cell's rate to the
// shard's worst uplink SNR.
//
// Execution follows the codebase's deterministic batch discipline
// (runtime/batch.h, the parallel_sweep pattern):
//
//   Phase D  (parallel over readers)  -- shard discovery. Each reader
//     runs slotted-ALOHA rounds over its own shard; round k of reader r
//     draws from the disjoint stream split_seed(seed, r, D + k).
//   Phase E  (repeated per epoch):
//     E.1 (parallel over reader x round-batch) -- inventory rounds. Rate
//       assignments are frozen for the epoch, so every round is a pure
//       function of (seed, reader, global round) and lands in its own
//       pre-sized slot; batches carry sweep_batch spans.
//     E.2 (serial merge, fleet_merge span) -- each reader's controller
//       consumes its epoch of SNR estimates in round order and re-freezes
//       the next epoch's assignment. Controller state is sequential by
//       nature, exactly like run_closed_loop_study's phase 2.
//
// Every result field is data-derived, so serial and N-thread runs
// compare bit-identical at any thread count (tests/test_fleet.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/narrow.h"
#include "common/rng.h"
#include "fleet/geometry.h"
#include "fleet/scheduler.h"
#include "mac/goodput.h"
#include "mac/rate_controller.h"
#include "mac/rate_table.h"
#include "obs/trace.h"
#include "runtime/batch.h"

namespace rt::fleet {

namespace detail {
/// Seed-stream bases: tag placement uses stream b = 0 (geometry.h),
/// discovery round k of reader r uses b = kDiscoveryStreamBase + k, and
/// data round g uses b = kDataStreamBase + g -- disjoint by construction.
inline constexpr std::uint64_t kDiscoveryStreamBase = std::uint64_t{1} << 20;
inline constexpr std::uint64_t kDataStreamBase = std::uint64_t{1} << 21;
}  // namespace detail

/// Discovery gives up (and the campaign throws) after this many ALOHA
/// rounds; every round must fit the discovery seed-stream window.
inline constexpr int kDiscoveryMaxRounds = 4096;
static_assert(static_cast<std::uint64_t>(kDiscoveryMaxRounds) <
                  detail::kDataStreamBase - detail::kDiscoveryStreamBase,
              "discovery rounds outside the discovery seed-stream window");

/// Reader-side SNR-estimate jitter (dB) applied to each round's estimate.
inline constexpr double kEstimateNoiseDb = 0.8;

struct FleetConfig {
  DeploymentConfig deployment{};
  /// true: colored schedule, zero cross-cell collisions, 1/num_colors
  /// airtime. false: every reader polls the whole frame and pays the
  /// cross-cell corruption probability instead.
  bool coordinate_readers = true;
  int epochs = 4;                 ///< controller merge points
  int rounds_per_epoch = 25;      ///< inventory rounds between merges
  int batch_rounds = 8;           ///< rounds per pool task
  std::size_t payload_bytes = 16;  ///< uplink payload per inventory slot
  mac::RateControllerConfig controller{};
  unsigned threads = 1;  ///< batch-phase workers (1 = serial reference)
  std::uint64_t seed = 2026;
};

/// Per-reader campaign outcome. Data-derived only.
struct ReaderOutcome {
  std::uint32_t reader = 0;
  std::uint32_t color = 0;        ///< slot-schedule color class
  std::uint64_t shard_tags = 0;
  int discovery_rounds = 0;
  std::uint64_t discovery_collision_slots = 0;
  std::uint64_t slots = 0;        ///< uplink slots granted (attempted packets)
  std::uint64_t delivered = 0;
  std::uint64_t cross_collisions = 0;
  std::uint64_t rate_switches = 0;
  std::size_t assigned_index = 0;  ///< final rate-table assignment
  double worst_snr_db = 0.0;       ///< shard-limiting SNR the cell adapts to
  double goodput_bps = 0.0;        ///< cell goodput at the final assignment

  friend bool operator==(const ReaderOutcome&, const ReaderOutcome&) = default;
};

struct FleetResult {
  std::vector<ReaderOutcome> readers;
  std::vector<std::uint32_t> discovery_round;  ///< per tag, 1-based
  std::uint32_t num_colors = 1;
  std::uint64_t slots = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cross_collisions = 0;
  double fleet_goodput_bps = 0.0;
  double delivery_rate = 0.0;
  double collision_rate = 0.0;        ///< cross-cell corrupted / attempted
  double mean_discovery_rounds = 0.0; ///< mean over tags of discovery_round
  obs::MetricsRegistry metrics;
  std::vector<obs::SpanRecord> trace; ///< empty unless spans are on (RT_OBS_SPAN_CAPACITY)

  /// Bitwise equality of everything data-derived: the serial-vs-parallel
  /// acceptance gate of test_fleet and bench_fleet_inventory.
  [[nodiscard]] bool identical(const FleetResult& o) const {
    return readers == o.readers && discovery_round == o.discovery_round &&
           num_colors == o.num_colors && metrics == o.metrics;
  }
};

/// Runs the campaign on an explicit deployment (tests pin geometry this
/// way; the seed-built overload below is the normal entry point).
[[nodiscard]] inline FleetResult run_fleet_campaign(const mac::RateTable& table,
                                                    const mac::GoodputModel& model,
                                                    const FleetConfig& cfg,
                                                    const Deployment& dep) {
  RT_ENSURE(cfg.epochs >= 1, "fleet campaign needs at least one epoch");
  RT_ENSURE(cfg.rounds_per_epoch >= 1, "fleet campaign needs at least one round per epoch");
  RT_ENSURE(cfg.batch_rounds >= 1, "fleet batch_rounds must be positive");
  RT_ENSURE(cfg.payload_bytes >= 1, "fleet payload cannot be empty");
  RT_ENSURE(static_cast<std::uint64_t>(cfg.epochs) *
                    static_cast<std::uint64_t>(cfg.rounds_per_epoch) <
                detail::kDataStreamBase,
            "epoch plan outside the data seed-stream window");

  const std::size_t readers = dep.reader_x_m.size();
  const SlotSchedule sched = plan_slot_schedule(dep, cfg.coordinate_readers);
  const unsigned workers = cfg.threads == 0 ? 1 : cfg.threads;

  FleetResult out;
  out.readers.resize(readers);
  out.discovery_round.assign(dep.tags.size(), 0);
  out.num_colors = sched.num_colors;

  // Serial recorder: setup + merge-phase telemetry, merged into the
  // result once at the end (run_closed_loop_study's control_rec pattern).
  obs::Recorder serial_rec;
  {
    const obs::ScopedBind bind(serial_rec);
    for (std::size_t r = 0; r < readers; ++r)
      RT_OBS_OBSERVE(kFleetShardTags, static_cast<double>(dep.shards[r].size()));
  }

  // Uncoordinated cross-cell corruption probability at reader r: one
  // minus the chance that no conflicting neighbor's concurrent uplink is
  // audible at r. Coordinated schedules never poll conflicting readers
  // concurrently, so the probability is exactly zero there.
  std::vector<double> p_cross(readers, 0.0);
  if (!sched.coordinated) {
    for (std::size_t r = 0; r < readers; ++r) {
      double p_clear = 1.0;
      for (std::size_t q = 0; q < readers; ++q) {
        if (q == r || dep.shards[q].empty()) continue;
        p_clear *= 1.0 - static_cast<double>(dep.audible[r][q]) /
                             static_cast<double>(dep.shards[q].size());
      }
      p_cross[r] = 1.0 - p_clear;
    }
  }

  // --- Phase D: shard discovery, one task per reader. ---
  struct DiscoveryOut {
    int rounds = 0;
    std::uint64_t collision_slots = 0;
  };
  std::vector<DiscoveryOut> disc(readers);
  {
    std::vector<std::function<runtime::BatchObs()>> tasks;
    tasks.reserve(readers);
    for (std::size_t r = 0; r < readers; ++r) {
      tasks.push_back([&out, &disc, &dep, &cfg, r] {
        return runtime::record_batch([&] {
          RT_TRACE_SPAN("fleet_discovery");
          const auto& shard = dep.shards[r];
          std::vector<std::uint32_t> remaining(shard.begin(), shard.end());
          std::vector<std::uint32_t> next;
          std::vector<std::uint32_t> slot_of;
          std::vector<std::uint32_t> occupancy;
          int round = 0;
          while (!remaining.empty() && round < kDiscoveryMaxRounds) {
            ++round;
            RT_OBS_COUNT(kMacDiscoveryRounds, 1);
            Rng rng(split_seed(cfg.seed, static_cast<std::uint64_t>(r),
                               detail::kDiscoveryStreamBase +
                                   static_cast<std::uint64_t>(round)));
            // Adaptive frame: one slot per remaining tag, at least two.
            const std::size_t frame = std::max<std::size_t>(remaining.size(), 2);
            occupancy.assign(frame, 0);
            slot_of.resize(remaining.size());
            for (std::size_t i = 0; i < remaining.size(); ++i) {
              slot_of[i] = narrow_cast<std::uint32_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(frame) - 1));
              ++occupancy[slot_of[i]];
            }
            next.clear();
            for (std::size_t i = 0; i < remaining.size(); ++i) {
              if (occupancy[slot_of[i]] == 1) {
                // Shards partition the tag ids, so writes stay disjoint
                // across the per-reader tasks.
                out.discovery_round[remaining[i]] = narrow_cast<std::uint32_t>(round);
                RT_OBS_COUNT(kFleetTagsDiscovered, 1);
                RT_OBS_OBSERVE(kFleetDiscoveryRound, static_cast<double>(round));
              } else {
                next.push_back(remaining[i]);
              }
            }
            for (std::size_t s = 0; s < frame; ++s)
              if (occupancy[s] > 1) ++disc[r].collision_slots;
            remaining.swap(next);
          }
          RT_ENSURE(remaining.empty(), "fleet discovery exceeded kDiscoveryMaxRounds");
          disc[r].rounds = round;
        });
      });
    }
    const auto obs = runtime::run_deterministic_batches(std::move(tasks), workers);
    out.metrics.merge(obs.metrics);
    out.trace.insert(out.trace.end(), obs.spans.begin(), obs.spans.end());
  }

  // --- Phase E: inventory epochs. ---
  const int total_rounds = cfg.epochs * cfg.rounds_per_epoch;
  struct RoundOut {
    std::uint32_t attempted = 0;
    std::uint32_t delivered = 0;
    std::uint32_t cross = 0;
    double snr_estimate_db = 0.0;
  };
  std::vector<std::vector<RoundOut>> round_out(
      readers, std::vector<RoundOut>(static_cast<std::size_t>(total_rounds)));

  // The shard-limiting SNR each reader adapts its cell to: the whole
  // shard must decode the assigned option, so the worst tag sets it.
  std::vector<double> worst_snr(readers, 0.0);
  for (std::size_t r = 0; r < readers; ++r) {
    double w = 0.0;
    bool first = true;
    for (const std::uint32_t id : dep.shards[r]) {
      const double snr = dep.tags[id].home_snr_db;
      if (first || snr < w) w = snr;
      first = false;
    }
    worst_snr[r] = w;
  }

  std::vector<mac::RateController> controllers;
  controllers.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) controllers.emplace_back(table, cfg.controller);
  std::vector<std::size_t> assign(readers, table.most_robust_index());
  std::vector<double> p_ok(dep.tags.size(), 0.0);

  for (int e = 0; e < cfg.epochs; ++e) {
    // E.0 (serial): freeze the epoch's per-tag delivery probabilities
    // under each reader's current assignment.
    for (std::size_t r = 0; r < readers; ++r) {
      const mac::RateOption& opt = table.option(assign[r]);
      for (const std::uint32_t id : dep.shards[r])
        p_ok[id] = model.packet_success(opt, dep.tags[id].home_snr_db, cfg.payload_bytes);
    }

    // E.1 (parallel): (reader, round-batch) tasks; round g of reader r
    // draws only from split_seed(seed, r, kDataStreamBase + g) and writes
    // only round_out[r][g], so any task order yields identical state.
    std::vector<std::function<runtime::BatchObs()>> tasks;
    for (std::size_t r = 0; r < readers; ++r) {
      for (int b0 = 0; b0 < cfg.rounds_per_epoch; b0 += cfg.batch_rounds) {
        const int b1 = std::min(b0 + cfg.batch_rounds, cfg.rounds_per_epoch);
        tasks.push_back([&round_out, &dep, &cfg, &p_ok, &p_cross, &worst_snr, r, e, b0, b1] {
          return runtime::record_batch([&] {
            RT_TRACE_SPAN("sweep_batch");
            RT_OBS_COUNT(kSweepBatches, 1);
            for (int t = b0; t < b1; ++t) {
              const int g = e * cfg.rounds_per_epoch + t;
              Rng rng(split_seed(cfg.seed, static_cast<std::uint64_t>(r),
                                 detail::kDataStreamBase + static_cast<std::uint64_t>(g)));
              RT_OBS_COUNT(kFleetRounds, 1);
              RoundOut ro;
              for (const std::uint32_t id : dep.shards[r]) {
                ++ro.attempted;
                // Fixed draw order per slot: the cross-collision draw
                // (when the cell is exposed at all), then the channel
                // draw -- so the stream layout is schedule-independent.
                const bool cross = p_cross[r] > 0.0 && rng.uniform() < p_cross[r];
                const double u = rng.uniform();
                if (cross) {
                  ++ro.cross;
                } else if (u < p_ok[id]) {
                  ++ro.delivered;
                }
              }
              // Counted once per round: counter calls in the slot loop
              // cost measurable campaign throughput.
              RT_OBS_COUNT(kFleetSlots, ro.attempted);
              RT_OBS_COUNT(kFleetCrossCollisions, ro.cross);
              RT_OBS_COUNT(kFleetPacketsDelivered, ro.delivered);
              RT_OBS_COUNT(kFleetPacketsLost, ro.attempted - ro.delivered);
              ro.snr_estimate_db = worst_snr[r] + rng.gaussian(0.0, kEstimateNoiseDb);
              round_out[r][static_cast<std::size_t>(g)] = ro;
            }
          });
        });
      }
    }
    const auto obs = runtime::run_deterministic_batches(std::move(tasks), workers);
    out.metrics.merge(obs.metrics);
    out.trace.insert(out.trace.end(), obs.spans.begin(), obs.spans.end());

    // E.2 (serial): controllers consume the epoch in round order and the
    // next epoch's assignments are frozen from their state.
    {
      const obs::ScopedBind bind(serial_rec);
      RT_TRACE_SPAN("fleet_merge");
      for (std::size_t r = 0; r < readers; ++r) {
        if (dep.shards[r].empty()) continue;  // no uplink, nothing to adapt
        for (int t = 0; t < cfg.rounds_per_epoch; ++t) {
          const std::size_t g = static_cast<std::size_t>(e * cfg.rounds_per_epoch + t);
          static_cast<void>(controllers[r].update(round_out[r][g].snr_estimate_db));
        }
        assign[r] = controllers[r].current_index();
      }
    }
  }

  // --- Accounting (serial): fold rounds into per-reader outcomes. ---
  for (std::size_t r = 0; r < readers; ++r) {
    ReaderOutcome& o = out.readers[r];
    o.reader = narrow_cast<std::uint32_t>(r);
    o.color = sched.colors[r];
    o.shard_tags = dep.shards[r].size();
    o.discovery_rounds = disc[r].rounds;
    o.discovery_collision_slots = disc[r].collision_slots;
    for (const RoundOut& ro : round_out[r]) {
      o.slots += ro.attempted;
      o.delivered += ro.delivered;
      o.cross_collisions += ro.cross;
    }
    o.rate_switches = controllers[r].switches();
    o.assigned_index = assign[r];
    o.worst_snr_db = worst_snr[r];
    const double dr =
        o.slots > 0 ? static_cast<double>(o.delivered) / static_cast<double>(o.slots) : 0.0;
    o.goodput_bps = table.option(assign[r]).effective_rate_bps() * dr * sched.airtime_share();
    out.slots += o.slots;
    out.delivered += o.delivered;
    out.cross_collisions += o.cross_collisions;
    out.fleet_goodput_bps += o.goodput_bps;
  }
  if (out.slots > 0) {
    out.delivery_rate = static_cast<double>(out.delivered) / static_cast<double>(out.slots);
    out.collision_rate =
        static_cast<double>(out.cross_collisions) / static_cast<double>(out.slots);
  }
  double round_sum = 0.0;
  for (const std::uint32_t dr : out.discovery_round) round_sum += static_cast<double>(dr);
  out.mean_discovery_rounds =
      out.discovery_round.empty() ? 0.0
                                  : round_sum / static_cast<double>(out.discovery_round.size());
  out.metrics.merge(serial_rec.metrics);
  const auto serial_spans = serial_rec.trace.spans();
  out.trace.insert(out.trace.end(), serial_spans.begin(), serial_spans.end());
  return out;
}

/// Builds the deployment from (cfg.deployment, cfg.seed) and runs the
/// campaign on it: the whole result is a pure function of cfg.
[[nodiscard]] inline FleetResult run_fleet_campaign(const mac::RateTable& table,
                                                    const mac::GoodputModel& model,
                                                    const FleetConfig& cfg) {
  return run_fleet_campaign(table, model, cfg, place_fleet(cfg.deployment, cfg.seed));
}

}  // namespace rt::fleet
