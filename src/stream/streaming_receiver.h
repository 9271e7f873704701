// Streaming sample-level receiver: finds and decodes frames in an
// unbounded IQ stream.
//
// The packet pipeline (phy::Demodulator) expects a pre-framed window; a
// real reader front-end gets a continuous photodiode stream and must find
// the frames itself. StreamingReceiver closes that gap with a three-state
// machine over a fixed-capacity SampleRing:
//
//   SEARCHING  continuous preamble scan: centred normalized correlation
//              against the offline reference, scored through a bank of
//              phase-hypothesis matched filters (phase_bank.h); the first
//              alignment whose score crosses `kScanGate` arms a sync.
//   SYNCED     peak resolution: once one full correlation span past the
//              crossing is buffered, the magnitude argmax pins the
//              candidate start t*, and the bit-error-tolerant soft SOF
//              check (sof_matcher.h) must accept the per-slot pattern --
//              otherwise the crossing is a false alarm and the scan
//              resumes past it.
//   DECODING   once the full frame window [t* - lead, t* + frame + W) is
//              buffered, it is copied out of the ring and handed to the
//              unmodified zero-allocation packet pipeline
//              (Demodulator::demodulate_into); accepted frames go to the
//              FrameSink, rejects resync past the candidate preamble.
//
// Contracts (tests/test_streaming.cpp):
//   - Chunk invariance: every state transition fires at a fixed absolute
//     sample index, so decode results are bit-identical whether the
//     stream arrives one sample at a time or all at once.
//   - Packet-path equivalence: over a concatenation of run_packet
//     waveforms, decoded bits/stats reproduce the packet-at-a-time path
//     bit for bit (the decode window hands demodulate_into the same
//     samples run_packet would).
//   - Zero allocations in steady state: all buffers are sized at
//     construction (tests/test_alloc.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "phy/demodulator.h"
#include "stream/phase_bank.h"
#include "stream/ring_buffer.h"
#include "stream/sof_matcher.h"

namespace rt::stream {

struct StreamOptions {
  /// Expected payload length in slots (the fixed-geometry frame contract;
  /// sim_source computes it from the payload byte count). Required.
  int payload_slots = 0;
  /// Scan decimation: only every `scan_stride`-th alignment is scored in
  /// SEARCHING. SYNCED re-resolves the peak at full resolution, so any
  /// stride yields the same decodes; larger strides trade detection
  /// latency for scan throughput.
  std::size_t scan_stride = 1;
  /// SOF mismatch budget in slots; -1 = preamble_slots / 4 (noise decides
  /// ~half the slots wrong, so a quarter is a comfortable wall).
  int sof_max_bit_errors = -1;
  /// Ring capacity in samples; 0 = min_ring_capacity(). Smaller values
  /// are rejected -- the state machine could deadlock waiting for a
  /// window that can never fit.
  std::size_t ring_capacity = 0;
  /// Options forwarded to the packet pipeline (search_limit is managed by
  /// the receiver; set the rest to mirror the packet-at-a-time run).
  phy::DemodOptions demod;
};

/// One decoded frame, delivered through FrameSink::on_frame. The spans
/// point into receiver-owned buffers and are valid only for the duration
/// of the callback.
struct StreamFrame {
  std::uint64_t start_sample = 0;      ///< absolute preamble start in the stream
  std::span<const std::uint8_t> bits;  ///< decoded payload bits (padded length)
  phy::PreambleDetection detection;    ///< start_sample here is window-relative
  double snr_estimate_db = 0.0;
};

class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void on_frame(const StreamFrame& frame) = 0;
};

/// Receiver statistics, mirrored by the stream_* obs counters.
struct StreamStats {
  std::uint64_t samples_pushed = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t sof_rejects = 0;       ///< gate crossings the SOF check refused
  std::uint64_t decode_rejects = 0;    ///< windows the packet pipeline refused
  std::uint64_t truncated_frames = 0;  ///< frames cut off by end-of-stream
};

class StreamingReceiver {
 public:
  /// `demod` must outlive the receiver (it is the trained packet pipeline
  /// the stream hands windows to -- sharing it with the packet path is
  /// what makes the two bit-identical).
  StreamingReceiver(const phy::Demodulator& demod, const StreamOptions& options);

  /// Feeds a chunk of the stream; decoded frames are delivered to `sink`
  /// as soon as their window completes. Chunks may have any size,
  /// including one sample.
  void push_samples(std::span<const sig::Complex> chunk, FrameSink& sink);

  /// Signals end of stream: resolves any pending sync and counts a frame
  /// whose window can no longer complete as truncated. The receiver
  /// returns to SEARCHING and can keep consuming a new stream.
  void flush(FrameSink& sink);

  [[nodiscard]] const StreamStats& stats() const { return stats_; }

  /// Smallest legal ring capacity for this geometry (the decode window
  /// plus the sync-resolution working set).
  [[nodiscard]] std::size_t min_ring_capacity() const { return min_capacity_; }
  [[nodiscard]] std::size_t ring_capacity() const { return ring_.capacity(); }

  enum class State { kSearching, kSynced, kDecoding };
  [[nodiscard]] State state() const { return state_; }

  /// Stage spans/counters recorded while pushing.
  [[nodiscard]] obs::Recorder& recorder() { return obs_; }

 private:
  void advance(FrameSink& sink);
  [[nodiscard]] bool step_searching();
  [[nodiscard]] bool step_synced();
  [[nodiscard]] bool step_decoding(FrameSink& sink);
  /// Peak resolution + SOF decision shared by step_synced and flush.
  /// `clip` bounds the argmax span by end-of-stream instead of waiting.
  [[nodiscard]] bool resolve_sync(bool clip);
  /// Copies `span` samples from absolute index `from` out of the ring into
  /// scan_buf_, split into scan_re_/scan_im_.
  void load_span(std::uint64_t from, std::size_t span);
  /// Centred correlation of the reference with the loaded span at offset
  /// `j`: a pure function of those ref_len_ samples alone.
  [[nodiscard]] sig::Complex correlation_at(std::size_t j) const;
  void retire_history();

  const phy::Demodulator* demod_;
  StreamOptions opts_;

  // Geometry, all derived from (PhyParams, payload_slots) at construction.
  std::size_t spslot_ = 0;
  std::size_t ref_len_ = 0;       ///< preamble reference length in samples
  std::size_t peak_span_ = 0;     ///< alignments searched past a gate crossing
  std::size_t frame_samples_ = 0; ///< total_slots * samples_per_slot
  std::size_t window_len_ = 0;    ///< decode window length (lead + frame + W)
  std::size_t min_capacity_ = 0;
  static constexpr std::size_t kLeadMax = 3;  ///< refinement look-back (preamble +-3)
  /// Detection gate on the phase-bank correlation score. Noise floors at
  /// ~1/sqrt(reference length) (< 0.05 for any supported preamble), a
  /// real preamble peaks near 1; 0.45 leaves margin both ways.
  static constexpr double kScanGate = 0.45;
  static_assert(kScanGate > 0.0 && kScanGate < 1.0, "scan gate must be in (0, 1)");
  static constexpr int kPhaseHypotheses = 8;  ///< rotors in the scan's phase bank
  /// Alignments scored per scan batch (bounds the scratch buffers).
  static constexpr std::size_t kScanBlock = 512;

  SampleRing ring_;
  PhaseBank bank_;
  SofMatcher sof_;

  State state_ = State::kSearching;
  std::uint64_t scan_pos_ = 0;    ///< next alignment to score (SEARCHING)
  std::uint64_t sync_lo_ = 0;     ///< first alignment of the peak-resolution span
  std::uint64_t sync_hi_ = 0;     ///< last alignment of the peak-resolution span
  std::uint64_t t_star_ = 0;      ///< resolved candidate preamble start
  std::uint64_t win_start_ = 0;   ///< absolute start of the decode window
  std::size_t lead_ = 0;          ///< samples of look-back in the window

  // Preallocated working buffers (sized at construction; the hot path
  // never grows them). Scan and sync work on split re/im planes (SoA):
  // each span is split once, then every alignment's correlation
  // statistics run over contiguous doubles (kernels::corr_stats_split).
  std::vector<sig::Complex> scan_buf_;
  std::vector<double> scan_re_;
  std::vector<double> scan_im_;
  std::vector<double> cref_re_;  ///< split centred reference (fixed)
  std::vector<double> cref_im_;
  double cref_energy_ = 0.0;
  sig::IqWaveform win_;
  phy::DemodWorkspace dws_;
  phy::DemodResult result_;

  StreamStats stats_;
  obs::Recorder obs_;
};

}  // namespace rt::stream
