// Tests for the end-to-end simulator: channel calibration, link stats,
// mobility scenarios and trace IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/units.h"
#include "sim/channel.h"
#include "sim/link_sim.h"
#include "sim/mobility.h"
#include "sim/trace.h"

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

TEST(ChannelConfigTest, SnrFollowsLinkBudgetAndYaw) {
  ChannelConfig cfg;
  cfg.pose.distance_m = 7.5;
  EXPECT_NEAR(cfg.snr_db(), 28.0, 1e-9);
  cfg.pose.yaw_rad = rt::deg_to_rad(45.0);
  EXPECT_LT(cfg.snr_db(), 28.0 - 2.5);
  cfg.snr_override_db = 50.0;
  EXPECT_DOUBLE_EQ(cfg.snr_db(), 50.0);
}

TEST(ChannelTest, NoiseSigmaRealizesTargetSnr) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 20.0;
  cfg.ambient.illuminance_lux = 0.0;  // isolate the AWGN term
  Channel ch(p, p.tag_config(), cfg);
  // Check sigma against the definition: P_ref / (2 sigma^2) = SNR.
  const double snr_lin = ch.reference_signal_power() /
                         (2.0 * ch.noise_sigma_per_axis() * ch.noise_sigma_per_axis());
  EXPECT_NEAR(rt::to_db(snr_lin), 20.0, 1e-9);
}

TEST(ChannelTest, NoiselessSourceIsDeterministic) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.pose.roll_rad = rt::deg_to_rad(30.0);
  Channel ch(p, p.tag_config(), cfg);
  const auto src = ch.noiseless_source_at(ch.config().pose);
  const auto a = src({}, rt::ms(8.0));
  const auto b = src({}, rt::ms(8.0));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ChannelTest, NoisySourceDrawsFreshNoisePerPacket) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 20.0;
  Channel ch(p, p.tag_config(), cfg);
  Rng noise_rng(cfg.noise_seed);
  lcm::SynthScratch scratch;
  sig::IqWaveform a;
  sig::IqWaveform b;
  ch.synthesize_into({}, rt::ms(4.0), &noise_rng, scratch, a);
  ch.synthesize_into({}, rt::ms(4.0), &noise_rng, scratch, b);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff = any_diff || (a[i] != b[i]);
  EXPECT_TRUE(any_diff);
}

TEST(Mobility, ScenariosPerturbGainMildly) {
  for (const auto& sc :
       {MobilityScenario::none(), MobilityScenario::walk_10cm_off_los(),
        MobilityScenario::walk_behind_tag(), MobilityScenario::work_5cm_off_los(),
        MobilityScenario::three_people_around_los()}) {
    for (double t = 0.0; t < 2.0; t += 0.01) {
      EXPECT_GT(sc.gain(t), 0.95) << sc.name;
      EXPECT_LT(sc.gain(t), 1.05) << sc.name;
    }
  }
  EXPECT_DOUBLE_EQ(MobilityScenario::none().gain(1.23), 1.0);
}

TEST(LinkSim, HighSnrLinkIsReliable) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 45.0;
  LinkSimulator sim(p, p.tag_config(), cfg, fast_options());
  const auto stats = sim.run(3, 16);
  EXPECT_EQ(stats.preamble_failures, 0);
  EXPECT_EQ(stats.bit_errors, 0u);
  EXPECT_EQ(stats.total_bits, 3u * 16u * 8u);
}

TEST(LinkSim, LowSnrLinkDegrades) {
  const auto p = fast_params();
  ChannelConfig hi;
  hi.snr_override_db = 45.0;
  ChannelConfig lo;
  lo.snr_override_db = 3.0;
  LinkSimulator sim_hi(p, p.tag_config(), hi, fast_options());
  LinkSimulator sim_lo(p, p.tag_config(), lo, fast_options());
  const auto s_hi = sim_hi.run(3, 16);
  const auto s_lo = sim_lo.run(3, 16);
  EXPECT_GT(s_lo.ber(), s_hi.ber());
  EXPECT_GT(s_lo.ber(), 0.01);
}

TEST(LinkSim, OracleTemplatesAtLeastAsGoodAsOnlineTraining) {
  const auto p = fast_params();
  ChannelConfig cfg;
  cfg.snr_override_db = 14.0;
  auto tag = p.tag_config();
  tag.heterogeneity = {0.05, 0.03, rt::deg_to_rad(1.0)};
  auto opt_online = fast_options();
  auto opt_oracle = fast_options();
  opt_oracle.oracle_templates = true;
  LinkSimulator online(p, tag, cfg, opt_online);
  LinkSimulator oracle(p, tag, cfg, opt_oracle);
  const auto s_online = online.run(4, 16);
  const auto s_oracle = oracle.run(4, 16);
  EXPECT_LE(s_oracle.ber(), s_online.ber() + 0.05);
}

TEST(LinkSim, RollDoesNotBreakTheLink) {
  // Fig. 16b: PQAM + preamble correction make roll nearly free.
  const auto p = fast_params();
  for (const double roll_deg : {0.0, 45.0, 90.0, 135.0}) {
    ChannelConfig cfg;
    cfg.snr_override_db = 35.0;
    cfg.pose.roll_rad = rt::deg_to_rad(roll_deg);
    LinkSimulator sim(p, p.tag_config(), cfg, fast_options());
    const auto stats = sim.run(2, 16);
    EXPECT_EQ(stats.bit_errors, 0u) << "roll " << roll_deg;
  }
}

TEST(LinkStatsTest, BerAccounting) {
  LinkStats s;
  s.packets = 2;
  s.preamble_failures = 1;
  s.bit_errors = 10;
  s.total_bits = 100;
  EXPECT_DOUBLE_EQ(s.ber(), 0.1);
  EXPECT_DOUBLE_EQ(s.packet_loss(), 0.5);
  EXPECT_DOUBLE_EQ(LinkStats{}.ber(), 0.0);
}

TEST(Trace, CsvRoundTrip) {
  sig::IqWaveform w(40e3, 25);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = {static_cast<double>(i) * 0.1, -static_cast<double>(i) * 0.2};
  const std::string path = "/tmp/rt_trace_test.csv";
  write_trace_csv(path, w);
  const auto r = read_trace_csv(path);
  ASSERT_EQ(r.size(), w.size());
  EXPECT_DOUBLE_EQ(r.sample_rate_hz, 40e3);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(r[i].real(), w[i].real(), 1e-9);
    EXPECT_NEAR(r[i].imag(), w[i].imag(), 1e-9);
  }
  std::remove(path.c_str());
}

TEST(Trace, RejectsMalformedFiles) {
  const std::string path = "/tmp/rt_trace_bad.csv";
  {
    std::ofstream f(path);
    f << "not a trace\n";
  }
  EXPECT_THROW((void)read_trace_csv(path), RuntimeError);
  EXPECT_THROW((void)read_trace_csv("/tmp/definitely_missing_trace.csv"), RuntimeError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rt::sim
