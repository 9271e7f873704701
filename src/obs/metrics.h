// Pipeline metrics: fixed enum-indexed counters and log2-bucket
// histograms with an associative, commutative merge.
//
// The registry is the numeric half of the observability layer (src/obs):
// every stage of the packet pipeline increments counters / observes
// histogram samples through the RT_OBS_* macros in obs/trace.h. Design
// rules that keep it fit for the zero-allocation hot path and the
// deterministic sweep engine:
//
//   - Fixed shape. Metrics are enum-indexed into std::array storage: no
//     strings, no hashing, no heap, so recording is a load + add and a
//     registry can be copied or returned by value without allocating.
//   - Lock-free by ownership. A registry is only ever written by the one
//     thread that has its recorder bound (per batch, in
//     runtime::record_batch); cross-thread aggregation happens by merging
//     snapshots, never by sharing.
//   - Deterministic merge. Counters and histogram buckets are integer
//     sums and min/max is order-free, so any partition of a packet set
//     merges to identical registries -- the same discipline as
//     sim::LinkStats::merge, locked down by tests/test_obs.cpp. (The
//     *samples* of timing histograms such as queue_wait_us are wall-clock
//     readings and therefore run-dependent; every data-derived metric is
//     bit-reproducible.)
//
// The full name/unit/semantics table lives in docs/TELEMETRY.md; the
// rt_lint doc-drift check keeps code and docs in sync.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace rt::obs {

/// Monotonic event counters. Keep in sync with kCounterInfo below and the
/// table in docs/TELEMETRY.md.
enum class Counter : std::uint32_t {
  kPacketsSimulated,      ///< packets through the TX->channel->RX pipeline
  kPreambleDetectFail,    ///< packets lost to a failed preamble search
  kPayloadBits,           ///< payload bits carried by simulated packets
  kBitErrors,             ///< payload bit errors (lost packets count all bits)
  kDfeBranchesExpanded,   ///< DFE candidates scored (branches x alphabet)
  kDfeBranchesPruned,     ///< DFE candidates discarded by the K-best cut
  kDfeStateMerges,        ///< Viterbi-style duplicate-state merges
  kLsSolves,              ///< least-squares solves (preamble + training)
  kTrainingSolves,        ///< per-packet online training runs
  kPixelCalSolves,        ///< per-pixel gain-calibration solves
  kSweepBatches,          ///< batches executed by the parallel sweep engine
  kTraceSpansDropped,     ///< spans dropped by full TraceBuffers
  kMacDiscoveryRounds,    ///< slotted-ALOHA discovery rounds run by the MAC
  kMacArqRetries,         ///< stop-and-wait ARQ retransmissions
  kMacRateSwitches,       ///< closed-loop rate-assignment changes
  kStreamSamplesPushed,   ///< IQ samples consumed by the streaming receiver
  kStreamFramesDecoded,   ///< frames the streaming receiver delivered
  kStreamSofRejects,      ///< gate crossings refused by the soft SOF check
  kStreamDecodeRejects,   ///< decode windows the packet pipeline refused
  kStreamTruncatedFrames, ///< frames cut off by end-of-stream at flush
  kFleetRounds,           ///< inventory rounds executed across all readers
  kFleetSlots,            ///< uplink slots granted across all readers
  kFleetPacketsDelivered, ///< fleet uplink packets received intact
  kFleetPacketsLost,      ///< fleet uplink packets lost to channel errors
  kFleetCrossCollisions,  ///< fleet slots corrupted by a neighboring cell
  kFleetTagsDiscovered,   ///< tags resolved by fleet shard discovery
  kCodedFrames,           ///< coded frames through the FEC pipeline
  kCodedCrcFailures,      ///< coded frames whose CRC residue was non-zero
  kCodedSoftDecodes,      ///< coded frames decoded from LLRs (soft path)
  kCodedHardDecodes,      ///< coded frames decoded from sliced bits
  kRsErasuresMarked,      ///< RS byte erasures used by successful GMD retries
  kCount
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);

struct CounterInfo {
  const char* name;
  const char* unit;
};

/// Export names and units, indexed by Counter.
inline constexpr std::array<CounterInfo, kNumCounters> kCounterInfo{{
    {"packets_simulated", "packets"},
    {"preamble_detect_failures", "packets"},
    {"payload_bits", "bits"},
    {"bit_errors", "bits"},
    {"dfe_branches_expanded", "candidates"},
    {"dfe_branches_pruned", "candidates"},
    {"dfe_state_merges", "branches"},
    {"ls_solves", "solves"},
    {"training_solves", "solves"},
    {"pixel_cal_solves", "solves"},
    {"sweep_batches", "batches"},
    {"trace_spans_dropped", "spans"},
    {"mac_discovery_rounds", "rounds"},
    {"mac_arq_retries", "retries"},
    {"mac_rate_switches", "switches"},
    {"stream_samples_pushed", "samples"},
    {"stream_frames_decoded", "frames"},
    {"stream_sof_rejects", "windows"},
    {"stream_decode_rejects", "windows"},
    {"stream_truncated_frames", "frames"},
    {"fleet_rounds", "rounds"},
    {"fleet_slots", "slots"},
    {"fleet_packets_delivered", "packets"},
    {"fleet_packets_lost", "packets"},
    {"fleet_cross_collisions", "slots"},
    {"fleet_tags_discovered", "tags"},
    {"coded_frames", "frames"},
    {"coded_crc_failures", "frames"},
    {"coded_soft_decodes", "frames"},
    {"coded_hard_decodes", "frames"},
    {"rs_erasures_marked", "bytes"},
}};

/// Distribution metrics. Keep in sync with kHistogramInfo below and
/// docs/TELEMETRY.md.
enum class Histogram : std::uint32_t {
  kEqualizerResidual,  ///< DFE winning-branch cumulative squared error
  kPreambleResidual,   ///< normalized preamble regression residual
  kQueueWaitUs,        ///< sweep batch queue wait (submit -> start), microseconds
  kAssignedRateIndex,  ///< rate-table index assigned by the closed loop
  kSnrEstimateErrorDb, ///< |estimated - true| uplink SNR, dB
  kFleetDiscoveryRound,///< 1-based round each tag was discovered in
  kFleetShardTags,     ///< tags homed to each reader's shard
  kSoftLlrMeanAbs,     ///< mean |LLR| per soft-decoded frame (margin scale)
  kCount
};

inline constexpr std::size_t kNumHistograms = static_cast<std::size_t>(Histogram::kCount);

struct HistogramInfo {
  const char* name;
  const char* unit;
  bool deterministic;  ///< false: samples are wall-clock, not data-derived
};

/// Export names/units, indexed by Histogram.
inline constexpr std::array<HistogramInfo, kNumHistograms> kHistogramInfo{{
    {"equalizer_residual", "squared-error", true},
    {"preamble_residual", "ratio", true},
    {"queue_wait_us", "us", false},
    {"assigned_rate_index", "index", true},
    {"snr_estimate_error_db", "dB", true},
    {"fleet_discovery_round", "rounds", true},
    {"fleet_shard_tags", "tags", true},
    {"soft_llr_mean_abs", "llr", true},
}};

/// One log2-bucketed distribution. Bucket 0 collects non-positive (and
/// non-finite) samples; bucket i >= 1 covers [2^(i-33), 2^(i-32)), i.e.
/// roughly 2^-32 .. 2^31 with one bucket per octave. Bucket counts,
/// count and min/max all merge associatively and commutatively.
struct HistogramData {
  static constexpr int kBuckets = 64;

  std::uint64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<std::uint64_t, kBuckets> buckets{};

  [[nodiscard]] static int bucket_index(double v) noexcept {
    if (!(v > 0.0) || !std::isfinite(v)) return 0;
    int e = 0;
    std::frexp(v, &e);  // v = m * 2^e with m in [0.5, 1)
    e += 32;
    return e < 1 ? 1 : (e > kBuckets - 1 ? kBuckets - 1 : e);
  }

  /// Inclusive lower bound of bucket `i` (0 for the sign/zero bucket).
  [[nodiscard]] static double bucket_lower_bound(int i) noexcept {
    return i <= 0 ? 0.0 : std::ldexp(1.0, i - 33);
  }

  void observe(double v) noexcept {
    ++count;
    if (v < min) min = v;
    if (v > max) max = v;
    ++buckets[static_cast<std::size_t>(bucket_index(v))];
  }

  HistogramData& merge(const HistogramData& o) noexcept {
    count += o.count;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    for (int i = 0; i < kBuckets; ++i)
      buckets[static_cast<std::size_t>(i)] += o.buckets[static_cast<std::size_t>(i)];
    return *this;
  }

  void reset() noexcept { *this = HistogramData{}; }

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

/// The per-worker metrics registry: plain data, value-copyable without
/// heap traffic, merged like sim::LinkStats. A zero-initialized registry
/// is the identity element of merge().
struct MetricsRegistry {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistogramData, kNumHistograms> histograms{};

  void add(Counter c, std::uint64_t n) noexcept {
    counters[static_cast<std::size_t>(c)] += n;
  }
  void observe(Histogram h, double v) noexcept {
    histograms[static_cast<std::size_t>(h)].observe(v);
  }

  [[nodiscard]] std::uint64_t count(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const HistogramData& histogram(Histogram h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] HistogramData& histogram(Histogram h) noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }

  /// Accumulates another registry. Integer sums + order-free min/max, so
  /// merging any partition of a run in any order yields identical state.
  MetricsRegistry& merge(const MetricsRegistry& o) noexcept {
    for (std::size_t i = 0; i < kNumCounters; ++i) counters[i] += o.counters[i];
    for (std::size_t i = 0; i < kNumHistograms; ++i) histograms[i].merge(o.histograms[i]);
    return *this;
  }

  void reset() noexcept { *this = MetricsRegistry{}; }

  [[nodiscard]] bool empty() const noexcept {
    for (const auto c : counters)
      if (c != 0) return false;
    for (const auto& h : histograms)
      if (h.count != 0) return false;
    return true;
  }

  friend bool operator==(const MetricsRegistry&, const MetricsRegistry&) = default;
};

}  // namespace rt::obs
