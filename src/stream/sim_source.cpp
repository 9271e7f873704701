#include "stream/sim_source.h"

#include "common/error.h"
#include "common/narrow.h"
#include "common/rng.h"
#include "lcm/tag_array.h"
#include "sim/packet_workspace.h"

namespace rt::stream {

namespace {

// Sub-stream tags for the gap material's split_seed derivations
// (independent of the packet streams, which hang off the simulator
// seeds inside render_packet_rx).
constexpr std::uint64_t kGapNoiseStream = 0;
constexpr std::uint64_t kGapFiringStream = 1;

}  // namespace

StreamTruth build_stream(const sim::LinkSimulator& sim, const StreamScenario& sc) {
  RT_ENSURE(sc.packets >= 1, "a stream scenario needs at least one packet");
  RT_ENSURE(sc.gap_slots >= 0 && sc.lead_in_slots >= 0 && sc.tail_slots >= 0,
            "gap lengths cannot be negative");
  const phy::PhyParams& p = sim.params();

  StreamTruth out;
  out.waveform.sample_rate_hz = p.sample_rate_hz;

  sim::PacketWorkspace ws;
  lcm::SynthScratch gap_scratch;
  sig::IqWaveform gap;
  std::vector<lcm::Firing> firings;
  std::uint64_t gap_index = 0;

  const auto append_gap = [&](int slots) {
    if (sc.gap == StreamScenario::Gap::kNone || slots <= 0) return;
    const double duration = slots * p.slot_s;
    Rng noise(split_seed(sc.gap_seed, gap_index, kGapNoiseStream));
    firings.clear();
    if (sc.gap == StreamScenario::Gap::kGarbage) {
      // One random firing per slot (except the last, which discharges):
      // tag-like energy with none of the preamble's MLS structure.
      Rng frng(split_seed(sc.gap_seed, gap_index, kGapFiringStream));
      for (int s = 0; s + 1 < slots; ++s) {
        lcm::Firing f;
        f.time_s = s * p.slot_s;
        f.module = narrow_cast<int>(frng.uniform_int(0, p.dsm_order - 1));
        f.level_i = narrow_cast<int>(frng.uniform_int(0, p.levels_per_axis() - 1));
        f.level_q =
            p.use_q_channel ? narrow_cast<int>(frng.uniform_int(0, p.levels_per_axis() - 1)) : 0;
        firings.push_back(f);
      }
    }
    sim.channel().synthesize_into(firings, duration, &noise, gap_scratch, gap);
    out.waveform.samples.insert(out.waveform.samples.end(), gap.samples.begin(),
                                gap.samples.end());
    ++gap_index;
  };

  append_gap(sc.lead_in_slots);
  for (int i = 0; i < sc.packets; ++i) {
    if (i > 0) append_gap(sc.gap_slots);
    const auto rendered =
        sim.render_packet_rx(static_cast<std::uint64_t>(i), sc.payload_bytes, ws);
    FrameTruth truth;
    truth.packet_offset = out.waveform.size();
    truth.start_sample = out.waveform.size() + rendered.pad_samples;
    truth.payload_bits = rendered.payload_bits;
    truth.first_payload_bit = out.payload_bits.size();
    out.frames.push_back(truth);
    out.payload_bits.insert(out.payload_bits.end(), ws.payload.begin(), ws.payload.end());
    out.waveform.samples.insert(out.waveform.samples.end(), ws.rx.samples.begin(),
                                ws.rx.samples.end());
    out.payload_slots = rendered.payload_slots;
  }
  append_gap(sc.tail_slots);
  return out;
}

}  // namespace rt::stream
