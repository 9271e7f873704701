// Tests for the mobility extension: segmented packets, mid-packet
// resynchronization and the time-varying channel.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "phy/mobile.h"
#include "sim/channel.h"
#include "sim/link_sim.h"

namespace rt::phy {
namespace {

PhyParams fast_params() {
  PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

MobileConfig fast_mobile(const PhyParams& p) {
  MobileConfig m;
  m.block_symbols = 4 * p.dsm_order;
  m.sync_slots = 12;
  return m;
}

struct Scenario {
  PhyParams p = fast_params();
  MobileConfig m = fast_mobile(p);
  sim::ChannelConfig ch;

  [[nodiscard]] double run_ber(std::uint64_t seed = 1) const {
    const MobileModulator mod(p, m);
    Rng rng(seed);
    const auto bits = rng.bits(static_cast<std::size_t>(3 * m.block_symbols) *
                               static_cast<std::size_t>(p.bits_per_slot()));
    const auto pkt = mod.modulate(bits);
    const sim::Channel channel(p, p.tag_config(), ch);
    Rng noise_rng(ch.noise_seed);
    lcm::SynthScratch scratch;
    sig::IqWaveform rx;
    channel.synthesize_into(pkt.firings, pkt.duration_s + p.symbol_duration_s(), &noise_rng,
                            scratch, rx);
    const MobileDemodulator demod(p, m, sim::train_offline_model(p, p.tag_config()));
    DemodOptions opts;
    opts.search_limit = 2 * p.samples_per_slot();
    const auto res = demod.demodulate(rx, pkt, opts);
    if (!res.preamble_found) return 1.0;
    std::size_t errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) errors += res.bits[i] != bits[i];
    return static_cast<double>(errors) / static_cast<double>(bits.size());
  }
};

TEST(Mobile, PacketStructureHasSyncFieldsBetweenBlocks) {
  const auto p = fast_params();
  const auto m = fast_mobile(p);
  const MobileModulator mod(p, m);
  Rng rng(5);
  const auto pkt =
      mod.modulate(rng.bits(static_cast<std::size_t>(3 * m.block_symbols * p.bits_per_slot())));
  ASSERT_EQ(pkt.blocks.size(), 3u);
  EXPECT_EQ(pkt.blocks[0].sync_begin_slot, 0);  // first block follows the header directly
  for (std::size_t b = 1; b < pkt.blocks.size(); ++b) {
    EXPECT_GT(pkt.blocks[b].sync_begin_slot, pkt.blocks[b - 1].payload_begin_slot);
    EXPECT_GT(pkt.blocks[b].payload_begin_slot,
              pkt.blocks[b].sync_begin_slot + m.sync_slots);  // trailing guard present
  }
  EXPECT_EQ(pkt.payload_symbols.size(), static_cast<std::size_t>(3 * m.block_symbols));
}

TEST(Mobile, StaticChannelRoundTripIsExact) {
  Scenario s;
  s.ch.snr_override_db = 35.0;
  EXPECT_EQ(s.run_ber(), 0.0);
}

TEST(Mobile, ResynchronizationTracksFastRotation) {
  // Tag spinning at 150 deg/s: over the packet the constellation
  // rotates by tens of degrees (twice that in the constellation plane) -- fatal for a
  // single preamble-time correction, benign with per-block resync.
  Scenario s;
  s.ch.snr_override_db = 35.0;
  s.ch.dynamics.roll_rate_deg_s = 150.0;
  const double ber = s.run_ber();
  EXPECT_LT(ber, 0.01) << "mid-packet resync should track the drift";

  // Ablation: the standard (single-correction) demodulator on the same
  // waveform -- emulated by a mobile config with one huge block.
  Scenario mono = s;
  mono.m.block_symbols = 3 * s.m.block_symbols;
  const double ber_mono = mono.run_ber();
  EXPECT_GT(ber_mono, 5.0 * std::max(ber, 0.001))
      << "without resync the drifting rotation must hurt";
}

TEST(Mobile, ResynchronizationTracksGainDrift) {
  Scenario s;
  s.ch.snr_override_db = 35.0;
  s.ch.dynamics.gain_drift_per_s = -0.8;  // receding tag: -40% amplitude over 0.5 s
  EXPECT_LT(s.run_ber(), 0.01);
}

TEST(Mobile, ReportsPerBlockRotationEstimates) {
  Scenario s;
  s.ch.snr_override_db = 40.0;
  s.ch.dynamics.roll_rate_deg_s = 45.0;
  const MobileModulator mod(s.p, s.m);
  Rng rng(7);
  const auto bits = rng.bits(static_cast<std::size_t>(3 * s.m.block_symbols) *
                             static_cast<std::size_t>(s.p.bits_per_slot()));
  const auto pkt = mod.modulate(bits);
  const sim::Channel channel(s.p, s.p.tag_config(), s.ch);
  Rng noise_rng(s.ch.noise_seed);
  lcm::SynthScratch scratch;
  sig::IqWaveform rx;
  channel.synthesize_into(pkt.firings, pkt.duration_s + s.p.symbol_duration_s(), &noise_rng,
                          scratch, rx);
  const MobileDemodulator demod(s.p, s.m, sim::train_offline_model(s.p, s.p.tag_config()));
  const auto res = demod.demodulate(rx, pkt);
  ASSERT_TRUE(res.preamble_found);
  ASSERT_EQ(res.block_rotation_deg.size(), 3u);
  EXPECT_EQ(res.blocks_resynced, 2);
  // Later blocks see a larger accumulated rotation.
  EXPECT_GT(res.block_rotation_deg[2], res.block_rotation_deg[1]);
  EXPECT_GT(res.block_rotation_deg[1], res.block_rotation_deg[0]);
}

TEST(Mobile, ConfigValidation) {
  const auto p = fast_params();
  MobileConfig bad;
  bad.block_symbols = 3;  // not a whole firing group
  EXPECT_THROW(MobileModulator(p, bad), PreconditionError);
  MobileConfig bad2 = fast_mobile(p);
  bad2.sync_slots = 4;
  EXPECT_THROW(MobileModulator(p, bad2), PreconditionError);
  auto basic = p;
  basic.basic_rest_slots = 4;
  EXPECT_THROW(MobileModulator(basic, fast_mobile(p)), PreconditionError);
}

}  // namespace
}  // namespace rt::phy
