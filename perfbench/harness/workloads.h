// The four benchmark workloads and the configuration they share.
//
// Each workload builds its objects (timed as set-up), generates its inputs
// from the run seed, runs closed-loop for the run length, checks its
// outputs against ground truth, and returns every end-to-end metric. With
// a tracer it also runs a traced phase and returns the per-layer metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "harness/report.h"
#include "harness/stats.h"
#include "lcm/tag_array.h"
#include "phy/params.h"

namespace perfbench {

[[nodiscard]] WorkloadResult run_link_8k(const RunConfig& cfg, Tracer* tracer);
[[nodiscard]] WorkloadResult run_stream_8k(const RunConfig& cfg, Tracer* tracer);
[[nodiscard]] WorkloadResult run_coded_16k_sweep(const RunConfig& cfg, Tracer* tracer);
[[nodiscard]] WorkloadResult run_fleet_inventory(const RunConfig& cfg, Tracer* tracer);

/// Operating point of the 8 kbps workloads: L=8, 16-PQAM, 32 dB, 128 B
/// payloads -- a decodable link. At 28 dB about one packet in 300 still
/// carried bit errors, enough to make the error-rate metrics jump between
/// seeds; at 30-32 dB none of 600 did.
inline constexpr double kLink8kSnrDb = 32.0;
inline constexpr std::size_t kPayloadBytes = 128;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Seed of one input stream of the run: a pure function of the run seed.
[[nodiscard]] inline std::uint64_t input_seed(const RunConfig& cfg, std::uint64_t stream) {
  return rt::split_seed(cfg.seed, stream, 0x9E37);
}

/// Tag hardware realism of the repository's experiment benches: pixel
/// gain spread scaled to the constellation density, zero for the
/// trace-emulation regime (T < tau_1).
[[nodiscard]] inline rt::lcm::TagConfig realistic_tag(const rt::phy::PhyParams& params) {
  auto tag = params.tag_config();
  double gain = 0.03 * std::min(1.0, 3.0 / static_cast<double>(params.levels_per_axis() - 1));
  if (params.slot_s < params.charge_s) gain = 0.0;
  tag.heterogeneity = {gain, gain * 0.7, rt::deg_to_rad(gain * 33.0)};
  tag.seed = 11;
  return tag;
}

/// "p90, 16 beyond": how a tail value was chosen.
[[nodiscard]] std::string tail_note(const Tail& t);

/// Adds self.<layer>_ms: the tracer's self time per layer divided by the
/// traced units of work (frames, packets or campaigns).
void add_self_metrics(WorkloadResult& r, const Tracer& tracer, std::size_t units);

/// Adds the end-to-end metrics of a single-caller workload that are
/// defined by its own throughput: sweep_scaling_eff is 1 by definition
/// (one thread), and fleet_slots_per_s counts each frame as one uplink
/// slot.
void add_single_caller_metrics(WorkloadResult& r, double pkt_per_s, std::size_t samples);

}  // namespace perfbench
