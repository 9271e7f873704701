// Per-worker packet pipeline workspace.
//
// One PacketWorkspace carries every reusable buffer the TX -> channel -> RX
// pipeline touches for a packet: the modulator scratch and firing schedule,
// the synthesis scratch (the tag's LC state), the shared rx waveform that
// doubles as the corrected-signal stage, and the receiver sub-workspaces.
// It holds nothing tied to one simulator, so one workspace may serve
// several. After a warm-up packet the steady-state hot path performs zero
// heap allocations (tests/test_alloc.cpp locks this down). Workspaces are
// reused across packets but never shared across threads -- the parallel
// sweep engine keeps one per worker (thread_local).
#pragma once

#include <cstdint>
#include <vector>

#include "coding/coded_frame.h"
#include "lcm/tag_array.h"
#include "obs/trace.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"

namespace rt::sim {

struct PacketWorkspace {
  // TX stage.
  phy::ModulatorWorkspace tx;
  phy::PacketSchedule schedule;
  std::vector<std::uint8_t> payload;  ///< per-packet random payload bits

  // Channel stage.
  lcm::SynthScratch synth;

  // RX stage. `rx` is written by the channel and then corrected in place
  // by the receiver (the two stages share one buffer).
  sig::IqWaveform rx;
  phy::DemodWorkspace demod;
  phy::DemodResult result;

  // Coded-frame stage (sim::CodedLink): codec scratch plus the on-air
  // coded bit stream and the decoded info-bit ground truth.
  coding::CodedFrameWorkspace coded;
  std::vector<std::uint8_t> coded_tx_bits;
  std::vector<std::uint8_t> info_bits;

  // Observability. The pipeline binds this recorder (thread-local) for
  // the duration of each packet, so stage spans and metrics land here.
  obs::Recorder obs;
};

}  // namespace rt::sim
