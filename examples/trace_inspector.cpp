// Trace inspector: synthesize RetroTurbo waveforms, dump them as CSV for
// plotting, and replay a recorded trace through the receiver.
//
// Reproduces the paper's illustrative figures from our simulator:
//   * the asymmetric LCM pulse response (Fig. 3)
//   * the I/Q pulse orthogonality p_I = j p_Q (Fig. 9)
//   * a full DSM-PQAM packet waveform (Fig. 1)
// and demonstrates trace record -> replay -> demodulate round-tripping,
// the workflow behind the paper's trace-driven emulation (section 7.3).
#include <cstdio>

#include "common/rng.h"
#include "common/units.h"
#include "lcm/tag_array.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "sim/channel.h"
#include "sim/link_sim.h"
#include "sim/trace.h"

using rt::ms;

int main() {
  rt::phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = ms(1.0);
  p.charge_s = ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;

  // 1. Single-pixel pulse response: charge 0.5 ms, then watch the slow
  //    plateau + discharge (the Fig. 3 asymmetry DSM exploits).
  {
    rt::lcm::TagConfig cfg = p.tag_config();
    cfg.dsm_order = 1;
    cfg.bits_per_axis = 1;
    rt::lcm::TagArray tag(cfg);
    const std::vector<rt::lcm::Firing> firing = {{ms(1.0), 0, 1, -1}};
    rt::lcm::SynthScratch scratch;
    rt::sig::IqWaveform w;
    tag.synthesize_into(firing, p.sample_rate_hz, ms(10.0), scratch, w);
    rt::sim::write_trace_csv("pulse_response.csv", w);
    // Console sketch of the envelope.
    std::printf("LCM pulse response (I axis, 0.5 ms drive at t=1 ms):\n");
    for (double t = 0.5e-3; t < 9e-3; t += 1e-3) {
      const double v = w[w.index_at(t)].real();
      const int bars = static_cast<int>((v + 2.0) * 15.0);
      std::printf("  t=%4.1f ms %+6.2f |%.*s\n", t * 1e3, v, bars,
                  "##############################################################");
    }
    std::printf("wrote pulse_response.csv\n\n");
  }

  // 2. Full packet: modulate random bits, record the channel waveform.
  const rt::phy::Modulator mod(p);
  rt::Rng rng(7);
  const auto bits = rng.bits(96);
  rt::phy::ModulatorWorkspace mod_ws;
  rt::phy::PacketSchedule pkt;
  mod.modulate_into(bits, mod_ws, pkt);

  rt::sim::ChannelConfig ch;
  ch.snr_override_db = 30.0;
  ch.pose.roll_rad = rt::deg_to_rad(25.0);
  const rt::sim::Channel channel(p, p.tag_config(), ch);
  rt::Rng noise_rng(ch.noise_seed);
  rt::lcm::SynthScratch scratch;
  rt::sig::IqWaveform rx;
  channel.synthesize_into(pkt.firings, pkt.duration_s + p.symbol_duration_s(), &noise_rng, scratch,
                          rx);
  rt::sim::write_trace_csv("packet_trace.csv", rx);
  std::printf("wrote packet_trace.csv (%zu samples, %.0f ms of DSM-PQAM air time)\n",
              rx.size(), rx.duration_s() * 1e3);

  // 3. Replay: read the trace back and demodulate it.
  auto replayed = rt::sim::read_trace_csv("packet_trace.csv");
  const auto offline = rt::sim::train_offline_model(p, p.tag_config());
  const rt::phy::Demodulator demod(p, offline);
  rt::phy::DemodOptions opts;
  opts.search_limit = 4 * p.samples_per_slot();
  rt::phy::DemodWorkspace demod_ws;
  rt::phy::DemodResult res;
  demod.demodulate_into(replayed, pkt.layout.payload_slots, opts, demod_ws, res);
  if (!res.preamble_found) {
    std::printf("replay: preamble not found\n");
    return 1;
  }
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) errors += res.bits[i] != bits[i];
  std::printf("replayed trace: preamble at sample %zu, rotation corrected "
              "(|a|=%.2f, arg a=%.1f deg), %zu/%zu bit errors\n",
              res.detection.start_sample, std::abs(res.detection.a),
              rt::rad_to_deg(std::arg(res.detection.a)), errors, bits.size());
  return errors == 0 ? 0 : 1;
}
