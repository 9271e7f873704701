// Parallel BER-sweep engine: fans sweep points and per-point packet
// batches out through runtime::run_deterministic_batches, with
// bit-identical results at any thread count.
//
// Determinism contract: LinkSimulator::run_packet(p) is a pure function
// of (sim seed, channel noise seed, p) via counter-based RNG splitting
// (rt::split_seed), and LinkStats::merge is an associative/commutative
// sum -- so any partition of {0..packets-1} over any number of workers
// merges to exactly the stats of the serial LinkSimulator::run loop.
#pragma once

#include <span>
#include <vector>

#include "obs/trace.h"
#include "sim/link_sim.h"

namespace rt::runtime {

/// One BER point: a full link configuration. `sim.seed` is the per-point
/// base seed and `channel.noise_seed` the per-point noise seed; benches
/// typically derive them with rt::split_seed(base_seed, point_index).
struct SweepPoint {
  phy::PhyParams params;
  lcm::TagConfig tag;
  sim::ChannelConfig channel;
  sim::SimOptions sim;
};

struct SweepOptions {
  int packets = 10;             ///< packets per point (RT_BENCH_PACKETS)
  std::size_t payload_bytes = 32;  ///< payload per packet (RT_BENCH_PAYLOAD)
  unsigned threads = 0;         ///< worker count; 0 = hardware_threads()
  int batch_packets = 1;        ///< packets per task (load-balance grain)
};

struct SweepResult {
  std::vector<sim::LinkStats> stats;  ///< per point, in input order
  double wall_s = 0.0;                ///< wall-clock time of the sweep
  unsigned threads = 1;               ///< workers actually used

  /// Every packet batch's counters and spans (a sweep_batch span around
  /// the batch's packet spans), merged in submission order. Data-derived
  /// metrics are bit-identical at any thread count (the LinkStats::merge
  /// discipline); timing samples (queue_wait_us, span durations) are
  /// wall-clock and vary run to run. `obs.spans` stays empty unless
  /// RT_OBS_SPAN_CAPACITY gives the batch recorders span storage. Building
  /// the simulators records nothing.
  obs::Snapshot obs;
};

/// Runs every point on `options.threads` workers (inline at one).
[[nodiscard]] SweepResult parallel_sweep(std::span<const SweepPoint> points,
                                         const SweepOptions& options = {});

}  // namespace rt::runtime
