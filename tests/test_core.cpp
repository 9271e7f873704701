// Tests for the retroturbo:: public facade.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/retroturbo.h"

namespace retroturbo {
namespace {

/// Fast facade config for tests: low rate preset overridden with the small
/// test PHY, short preamble, good SNR.
LinkConfig fast_config() {
  LinkConfig cfg;
  rt::phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  cfg.custom_phy = p;
  cfg.snr_override_db = 35.0;
  return cfg;
}

TEST(Facade, VersionAndPresets) {
  EXPECT_FALSE(version().empty());
  EXPECT_NEAR(phy_params_for(RatePreset::k8kbps).data_rate_bps(), 8000.0, 1e-9);
  EXPECT_NEAR(phy_params_for(RatePreset::k32kbps).data_rate_bps(), 32000.0, 1e-9);
  EXPECT_NEAR(phy_params_for(RatePreset::k1kbps).data_rate_bps(), 1000.0, 1e-9);
}

TEST(Facade, SendBytesRoundTrip) {
  Link link(fast_config());
  rt::Rng rng(5);
  const auto payload = rng.bytes(24);
  const auto r = link.send_bytes(payload);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.received, payload);
  EXPECT_EQ(r.attempts, 1);
}

TEST(Facade, CodedLinkConfig) {
  auto cfg = fast_config();
  cfg.rs_n = 15;
  cfg.rs_k = 11;
  cfg.snr_override_db = 30.0;
  Link link(cfg);
  rt::Rng rng(6);
  const auto payload = rng.bytes(16);
  const auto r = link.send_bytes(payload);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.received, payload);
}

TEST(Facade, RsFrameDeliversInOneAttemptAtHighSnr) {
  auto cfg = fast_config();
  cfg.rs_n = 15;
  cfg.rs_k = 11;
  cfg.snr_override_db = 40.0;
  Link link(cfg);
  rt::Rng rng(9);
  const auto payload = rng.bytes(20);
  const auto r = link.send_bytes(payload);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.received, payload);
}

TEST(Facade, CodedLinkSurvivesNoiseUncodedFails) {
  // One attempt per frame at an SNR that leaves a few raw bit errors in
  // most packets: RS(63, 39) absorbs them, the uncoded CRC rejects them.
  auto cfg = fast_config();
  cfg.snr_override_db = 8.0;
  cfg.max_retransmissions = 0;
  auto coded_cfg = cfg;
  coded_cfg.rs_n = 63;
  coded_cfg.rs_k = 39;
  Link coded(coded_cfg);
  cfg.seed = 2;
  Link raw(cfg);
  rt::Rng rng(11);
  int coded_ok = 0;
  int raw_ok = 0;
  for (int i = 0; i < 4; ++i) {
    const auto payload = rng.bytes(24);
    const auto c = coded.send_bytes(payload);
    const auto u = raw.send_bytes(payload);
    coded_ok += c.delivered && c.received == payload ? 1 : 0;
    raw_ok += u.delivered && u.received == payload ? 1 : 0;
  }
  EXPECT_GE(coded_ok, raw_ok);
  EXPECT_GE(coded_ok, 3);
}

TEST(Arq, RetriesUntilSuccess) {
  // At 6 dB the first attempt of this RS(63, 39) frame fails its CRC; a
  // retransmission, a fresh packet with fresh noise, gets it through.
  auto cfg = fast_config();
  cfg.snr_override_db = 6.0;
  cfg.rs_n = 63;
  cfg.rs_k = 39;
  Link link(cfg);
  rt::Rng rng(11);
  const auto payload = rng.bytes(24);
  const auto r = link.send_bytes(payload);
  ASSERT_TRUE(r.delivered);
  EXPECT_GT(r.attempts, 1);
  EXPECT_LE(r.attempts, 1 + cfg.max_retransmissions);
  EXPECT_EQ(r.received, payload);
}

TEST(Arq, GivesUpAfterMaxAttempts) {
  // Nothing gets through at -20 dB, so every send uses its whole budget:
  // the first attempt plus max_retransmissions retransmissions.
  auto cfg = fast_config();
  cfg.snr_override_db = -20.0;
  rt::Rng rng(3);
  const auto payload = rng.bytes(16);
  for (const int retransmissions : {0, 2}) {
    cfg.max_retransmissions = retransmissions;
    Link link(cfg);
    const auto r = link.send_bytes(payload);
    EXPECT_FALSE(r.delivered);
    EXPECT_EQ(r.attempts, 1 + retransmissions);
    EXPECT_TRUE(r.received.empty());
  }
  cfg.max_retransmissions = -1;
  EXPECT_THROW(Link{cfg}, rt::PreconditionError);
}

TEST(Facade, MeasureBerReportsStats) {
  Link link(fast_config());
  const auto stats = link.measure_ber(2, 8);
  EXPECT_EQ(stats.packets, 2);
  EXPECT_EQ(stats.total_bits, 2u * 64u);
  EXPECT_EQ(stats.bit_errors, 0u);
}

TEST(Facade, SnrFollowsDeployment) {
  auto cfg = fast_config();
  cfg.snr_override_db.reset();
  cfg.distance_m = 7.5;
  Link link(cfg);
  EXPECT_NEAR(link.snr_db(), 28.0, 1e-9);  // narrow-beam anchor point
}

TEST(Facade, LinkConfigDefaultsAreUsable) {
  // The default 8 Kbps config must at least construct and report rates
  // (constructing the full L=8 stack is the expensive real configuration).
  const LinkConfig cfg;
  EXPECT_EQ(cfg.rate, RatePreset::k8kbps);
  EXPECT_NEAR(phy_params_for(cfg.rate).data_rate_bps(), 8000.0, 1e-9);
}

}  // namespace
}  // namespace retroturbo
