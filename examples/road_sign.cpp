// Infrastructure-to-vehicle road sign: a RetroTurbo tag on a road sign
// read by a passing vehicle's headlight/reader (the scenario of the
// paper's reference [11] and its section-8 mobility discussion).
//
// As the car passes, the relative orientation and range change *during*
// each packet: the constellation rotates and the amplitude drifts. This
// example contrasts the static receiver (one preamble-time correction)
// with the mobility extension (mid-packet sync fields + interpolated
// correction tracking), transmitting a road-sign payload at several
// vehicle speeds.
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "phy/mobile.h"
#include "sim/channel.h"
#include "sim/link_sim.h"

namespace {

struct PassResult {
  double ber_static;
  double ber_mobile;
};

PassResult simulate_pass(double roll_rate_deg_s, double gain_drift_per_s, std::uint64_t seed) {
  rt::phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;

  rt::phy::MobileConfig mc;
  // Section 8: sync insertion "based on the mobility level and packet
  // length" -- faster passes get shorter blocks (more frequent resync).
  const int groups = roll_rate_deg_s > 100.0 ? 2 : 4;
  mc.block_symbols = groups * p.dsm_order;
  mc.sync_slots = 12;

  const std::string sign = "SPEED LIMIT 60 | LANE CLOSED AHEAD";
  std::vector<std::uint8_t> payload_bits;
  for (const char ch : sign)
    for (int b = 7; b >= 0; --b)
      payload_bits.push_back(static_cast<std::uint8_t>((ch >> b) & 1));

  rt::sim::ChannelConfig ch;
  ch.snr_override_db = 33.0;
  ch.dynamics.roll_rate_deg_s = roll_rate_deg_s;
  ch.dynamics.gain_drift_per_s = gain_drift_per_s;
  ch.noise_seed = seed;

  const rt::phy::MobileModulator mod(p, mc);
  const auto pkt = mod.modulate(payload_bits);
  const rt::sim::Channel channel(p, p.tag_config(), ch);
  rt::lcm::SynthScratch scratch;
  rt::Rng noise_rng(ch.noise_seed);
  rt::sig::IqWaveform rx;
  channel.synthesize_into(pkt.firings, pkt.duration_s + p.symbol_duration_s(), &noise_rng, scratch,
                          rx);

  const auto offline = rt::sim::train_offline_model(p, p.tag_config());
  const rt::phy::MobileDemodulator mobile(p, mc, offline);
  const auto res_mobile = mobile.demodulate(rx, pkt);

  // Static ablation: same waveform, one giant block => single correction.
  rt::phy::MobileConfig mono = mc;
  mono.block_symbols =
      ((static_cast<int>(pkt.payload_symbols.size()) + p.dsm_order - 1) / p.dsm_order) *
      p.dsm_order;
  const rt::phy::MobileModulator mono_mod(p, mono);
  const auto mono_pkt = mono_mod.modulate(payload_bits);
  rt::Rng mono_noise_rng(ch.noise_seed);
  rt::sig::IqWaveform mono_rx;
  channel.synthesize_into(mono_pkt.firings, mono_pkt.duration_s + p.symbol_duration_s(),
                          &mono_noise_rng, scratch, mono_rx);
  const rt::phy::MobileDemodulator mono_demod(p, mono, offline);
  const auto res_static = mono_demod.demodulate(mono_rx, mono_pkt);

  const auto ber = [&](const rt::phy::MobileDemodulator::Result& r) {
    if (!r.preamble_found) return 1.0;
    std::size_t errors = 0;
    for (std::size_t i = 0; i < payload_bits.size(); ++i) errors += r.bits[i] != payload_bits[i];
    return static_cast<double>(errors) / static_cast<double>(payload_bits.size());
  };
  return {ber(res_static), ber(res_mobile)};
}

}  // namespace

int main() {
  std::printf("RetroTurbo road sign -> passing vehicle (mobility extension demo)\n\n");
  std::printf("%-28s %-18s %-18s\n", "vehicle dynamics", "static receiver", "with resync");
  struct Case {
    const char* name;
    double roll_rate;
    double gain_drift;
  };
  const Case cases[] = {
      {"parked (no motion)", 0.0, 0.0},
      {"creeping (30 deg/s)", 30.0, -0.2},
      {"city speed (90 deg/s)", 90.0, -0.5},
      {"highway (180 deg/s)", 180.0, -0.8},
  };
  bool mobile_always_ok = true;
  for (const auto& c : cases) {
    const auto r = simulate_pass(c.roll_rate, c.gain_drift, 42);
    std::printf("%-28s BER %-13.3f%% BER %-13.3f%%\n", c.name, 100.0 * r.ber_static,
                100.0 * r.ber_mobile);
    mobile_always_ok = mobile_always_ok && r.ber_mobile < 0.01;
  }
  std::printf("\nmid-packet sync fields keep every pass below the 1%% reliability bar: %s\n",
              mobile_always_ok ? "yes" : "no");
  return mobile_always_ok ? 0 : 1;
}
