// Tests for the stage-based packet pipeline: workspace reuse must be
// bit-identical to fresh-workspace runs (across packets, simulators and
// channel switches), and the demodulator's oracle-template and descramble
// paths must behave identically through the workspace entry points.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "signal/scrambler.h"
#include "sim/link_sim.h"
#include "sim/packet_workspace.h"

namespace rt::sim {
namespace {

phy::PhyParams fast_params() {
  phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

SimOptions fast_options() {
  SimOptions o;
  o.offline_yaws_deg = {0.0};
  return o;
}

ChannelConfig fast_channel(double snr_db, std::uint64_t noise_seed) {
  ChannelConfig cfg;
  cfg.snr_override_db = snr_db;
  cfg.noise_seed = noise_seed;
  return cfg;
}

void expect_same_outcome(const PacketOutcome& a, const PacketOutcome& b) {
  EXPECT_EQ(a.preamble_found, b.preamble_found);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.bits, b.bits);
}

TEST(PacketPipeline, WorkspaceReuseMatchesFreshWorkspacePerPacket) {
  const auto p = fast_params();
  const LinkSimulator sim(p, p.tag_config(), fast_channel(12.0, 5), fast_options());
  PacketWorkspace reused;
  for (std::uint64_t i = 0; i < 6; ++i) {
    PacketWorkspace fresh;
    const auto a = sim.run_packet(i, 8, fresh);
    const auto b = sim.run_packet(i, 8, reused);
    expect_same_outcome(a, b);
    EXPECT_EQ(fresh.result.bits, reused.result.bits);
  }
}

TEST(PacketPipeline, DirtyWorkspaceDoesNotLeakAcrossPackets) {
  const auto p = fast_params();
  const LinkSimulator sim(p, p.tag_config(), fast_channel(12.0, 5), fast_options());
  PacketWorkspace ws;
  // Dirty the workspace with a different, larger packet first; replaying
  // packet 0 must still match a clean run exactly.
  (void)sim.run_packet(3, 16, ws);
  const auto dirty = sim.run_packet(0, 8, ws);
  PacketWorkspace clean;
  const auto ref = sim.run_packet(0, 8, clean);
  expect_same_outcome(ref, dirty);
  EXPECT_EQ(clean.result.bits, ws.result.bits);
}

TEST(PacketPipeline, WorkspaceFollowsChannelSwitches) {
  const auto p = fast_params();
  const auto tag = p.tag_config();
  const LinkSimulator sim_a(p, tag, fast_channel(12.0, 5), fast_options());
  const LinkSimulator sim_b(p, tag, fast_channel(7.0, 9), fast_options());
  // One workspace bounced between two simulators must reproduce what each
  // simulator computes alone: the tag's LC state in the workspace starts
  // relaxed on every render, so no channel's state leaks into the other's
  // packets.
  PacketWorkspace shared;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto a_shared = sim_a.run_packet(i, 8, shared);
    const auto b_shared = sim_b.run_packet(i, 8, shared);
    PacketWorkspace own_a;
    PacketWorkspace own_b;
    expect_same_outcome(sim_a.run_packet(i, 8, own_a), a_shared);
    expect_same_outcome(sim_b.run_packet(i, 8, own_b), b_shared);
  }
}

TEST(PacketPipeline, CompatRunPacketStillFillsReceivedBits) {
  const auto p = fast_params();
  const LinkSimulator sim(p, p.tag_config(), fast_channel(30.0, 5), fast_options());
  const auto out = sim.run_packet(0, 8);
  ASSERT_TRUE(out.preamble_found);
  ASSERT_EQ(out.received_bits.size(), out.bits);
  // The workspace form leaves received_bits empty but keeps the payload in
  // ws.result.bits.
  PacketWorkspace ws;
  const auto ws_out = sim.run_packet(0, 8, ws);
  EXPECT_TRUE(ws_out.received_bits.empty());
  ASSERT_GE(ws.result.bits.size(), out.bits);
  for (std::size_t i = 0; i < out.received_bits.size(); ++i)
    EXPECT_EQ(out.received_bits[i], ws.result.bits[i]) << "bit " << i;
}

TEST(PacketPipeline, OracleTemplatePathMatchesThroughWorkspace) {
  auto p = fast_params();
  auto opts = fast_options();
  opts.oracle_templates = true;
  const LinkSimulator sim(p, p.tag_config(), fast_channel(25.0, 3), opts);
  PacketWorkspace ws;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto a = sim.run_packet(i, 8);
    const auto b = sim.run_packet(i, 8, ws);
    expect_same_outcome(a, b);
  }
  // At this SNR the oracle receiver should actually decode.
  const auto healthy = sim.run_packet(0, 8, ws);
  ASSERT_TRUE(healthy.preamble_found);
  EXPECT_EQ(healthy.bit_errors, 0u);
}

TEST(PacketPipeline, ModulateIntoReplaysPrefixAcrossPayloads) {
  // A workspace and schedule reused across payloads of changing size must
  // rebuild exactly what a fresh pair builds. They start dirty: a longer
  // packet whose firings were then shifted in place, as the simulator's
  // start padding does, so the prefix must be replayed, not accumulated.
  const auto p = fast_params();
  const phy::Modulator mod(p);
  phy::ModulatorWorkspace ws;
  phy::PacketSchedule reused;
  Rng dirt(5);
  mod.modulate_into(dirt.bits(200), ws, reused);
  for (auto& f : reused.firings) f.time_s += 3 * p.slot_s;
  Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    const auto bits = rng.bits(trial == 2 ? 48 : 16);  // includes a size change
    phy::ModulatorWorkspace fresh_ws;
    phy::PacketSchedule ref;
    mod.modulate_into(bits, fresh_ws, ref);
    mod.modulate_into(bits, ws, reused);
    ASSERT_EQ(ref.firings.size(), reused.firings.size());
    for (std::size_t i = 0; i < ref.firings.size(); ++i) {
      EXPECT_EQ(ref.firings[i].time_s, reused.firings[i].time_s);
      EXPECT_EQ(ref.firings[i].module, reused.firings[i].module);
      EXPECT_EQ(ref.firings[i].level_i, reused.firings[i].level_i);
      EXPECT_EQ(ref.firings[i].level_q, reused.firings[i].level_q);
    }
    ASSERT_EQ(ref.payload_symbols.size(), reused.payload_symbols.size());
    for (std::size_t i = 0; i < ref.payload_symbols.size(); ++i) {
      EXPECT_EQ(ref.payload_symbols[i].level_i, reused.payload_symbols[i].level_i);
      EXPECT_EQ(ref.payload_symbols[i].level_q, reused.payload_symbols[i].level_q);
    }
    EXPECT_EQ(ref.payload_symbol_count, reused.payload_symbol_count);
    EXPECT_EQ(ref.duration_s, reused.duration_s);
  }
}

TEST(PacketPipeline, DescramblePathRoundTripsThroughDemodOptions) {
  // descramble=false must return the raw (still scrambled) bit stream:
  // descrambling it by hand recovers exactly what descramble=true returns.
  const auto p = fast_params();
  const auto tag = p.tag_config();
  const phy::Modulator mod(p);
  Rng rng(13);
  const auto bits = rng.bits(16);
  phy::ModulatorWorkspace mod_ws;
  phy::PacketSchedule pkt;
  mod.modulate_into(bits, mod_ws, pkt);
  Channel ch(p, tag, fast_channel(40.0, 2));
  const auto rx =
      ch.noiseless_source_at(ch.config().pose)(pkt.firings, pkt.duration_s + p.symbol_duration_s());

  // demodulate_into corrects its input in place, so each run gets a copy.
  const phy::Demodulator demod(p, train_offline_model(p, tag, {0.0}));
  phy::DemodWorkspace ws;
  phy::DemodOptions scrambled_opts;
  scrambled_opts.descramble = false;
  auto rx_raw = rx;
  phy::DemodResult raw;
  demod.demodulate_into(rx_raw, pkt.layout.payload_slots, scrambled_opts, ws, raw);
  auto rx_cooked = rx;
  phy::DemodResult cooked;
  demod.demodulate_into(rx_cooked, pkt.layout.payload_slots, {}, ws, cooked);
  ASSERT_TRUE(raw.preamble_found);
  ASSERT_TRUE(cooked.preamble_found);
  auto descrambled = raw.bits;
  sig::Scrambler{}.apply_in_place(descrambled);
  EXPECT_EQ(descrambled, cooked.bits);
  EXPECT_NE(raw.bits, cooked.bits);  // the scrambler is not the identity here
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(cooked.bits[i], bits[i]) << i;
}

}  // namespace
}  // namespace rt::sim
