// Scenario builder: concatenates LinkSimulator packet waveforms into one
// continuous stream with configurable inter-frame material, plus the
// ground truth needed to judge a streaming receiver against it.
//
// Packet waveforms come from LinkSimulator::render_packet_rx -- the exact
// TX -> channel samples run_packet() demodulates -- so a streaming decode
// of the concatenation can be compared bit for bit against the
// packet-at-a-time path. Gaps are rendered through the same channel:
// kNoise renders the idle tag (baseline + AWGN), kGarbage renders random
// tag firings (signal-level energy with non-preamble structure, the
// false-alarm stressor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "signal/waveform.h"
#include "sim/link_sim.h"

namespace rt::stream {

struct StreamScenario {
  int packets = 4;
  std::size_t payload_bytes = 16;
  enum class Gap {
    kNone,     ///< packets butt up back to back
    kNoise,    ///< idle channel: baseline + AWGN
    kGarbage,  ///< random tag firings: energy without preamble structure
  };
  Gap gap = Gap::kNoise;
  int gap_slots = 8;      ///< inter-packet gap length in slots
  int lead_in_slots = 4;  ///< gap material before the first packet
  int tail_slots = 8;     ///< gap material after the last packet
  std::uint64_t gap_seed = 7;  ///< noise/firing streams for the gaps
};

/// Ground truth for one frame inside the stream.
struct FrameTruth {
  std::uint64_t start_sample = 0;    ///< nominal preamble start (padding included)
  std::uint64_t packet_offset = 0;   ///< where the packet waveform begins (before padding)
  std::size_t payload_bits = 0;
  std::size_t first_payload_bit = 0; ///< offset into StreamTruth::payload_bits
};

struct StreamTruth {
  sig::IqWaveform waveform;               ///< the concatenated stream
  std::vector<FrameTruth> frames;
  std::vector<std::uint8_t> payload_bits; ///< concatenated ground-truth bits
  int payload_slots = 0;                  ///< frame geometry for StreamOptions
};

/// Renders the scenario into one waveform + truth record. Deterministic:
/// a pure function of (simulator seeds, scenario).
[[nodiscard]] StreamTruth build_stream(const sim::LinkSimulator& sim,
                                       const StreamScenario& scenario);

}  // namespace rt::stream
