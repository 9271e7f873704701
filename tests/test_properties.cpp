// Parameterized property tests: invariants swept across configuration
// grids (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "coding/reed_solomon.h"
#include "common/rng.h"
#include "common/units.h"
#include "lcm/lc_cell.h"
#include "optics/link_budget.h"
#include "phy/constellation.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "sim/channel.h"
#include "sim/link_sim.h"

namespace rt {
namespace {

// ---------------------------------------------------------------- PQAM --

class ConstellationProperty : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ConstellationProperty, MapUnmapIsIdentityOverAllWords) {
  const auto [bits, use_q] = GetParam();
  const phy::Constellation c(bits, use_q);
  const int n = c.bits_per_symbol();
  for (std::uint32_t word = 0; word < (1U << n); ++word) {
    std::vector<std::uint8_t> in(n);
    for (int b = 0; b < n; ++b) in[b] = (word >> b) & 1U;
    std::vector<std::uint8_t> out;
    c.unmap_into(c.map(in), out);
    EXPECT_EQ(out, in) << "word " << word;
  }
}

TEST_P(ConstellationProperty, AllPointsDistinctAndInUnitSquare) {
  const auto [bits, use_q] = GetParam();
  const phy::Constellation c(bits, use_q);
  const auto alphabet = c.alphabet();
  for (std::size_t i = 0; i < alphabet.size(); ++i) {
    const auto pi = c.point(alphabet[i]);
    EXPECT_GE(pi.real(), 0.0);
    EXPECT_LE(pi.real(), 1.0);
    EXPECT_GE(pi.imag(), 0.0);
    EXPECT_LE(pi.imag(), 1.0);
    for (std::size_t j = i + 1; j < alphabet.size(); ++j)
      EXPECT_GT(std::abs(pi - c.point(alphabet[j])), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ConstellationProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

// ------------------------------------------------------- Reed-Solomon --

class RsCodeProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RsCodeProperty, CorrectsExactlyUpToDesignRadius) {
  const auto [n, k] = GetParam();
  coding::ReedSolomon rs(n, k);
  coding::ReedSolomon::Scratch scratch;
  Rng rng(static_cast<std::uint64_t>(n * 1000 + k));
  const auto data = rng.bytes(static_cast<std::size_t>(k));
  std::vector<std::uint8_t> cw(static_cast<std::size_t>(n));
  rs.encode_block_into(data, scratch, cw);
  const auto t = rs.correctable_errors();
  // Exactly t errors: always corrected.
  auto corrupted = cw;
  for (std::size_t e = 0; e < t; ++e) corrupted[e * 2] ^= static_cast<std::uint8_t>(e + 1);
  std::vector<std::uint8_t> fixed(static_cast<std::size_t>(k));
  ASSERT_TRUE(rs.decode_block_into(corrupted, {}, scratch, fixed))
      << "RS(" << n << "," << k << ")";
  EXPECT_EQ(fixed, data);
}

INSTANTIATE_TEST_SUITE_P(CommonCodes, RsCodeProperty,
                         ::testing::Values(std::pair{15, 11}, std::pair{31, 23},
                                           std::pair{63, 39}, std::pair{255, 223},
                                           std::pair{255, 127}, std::pair{255, 251}));

// ------------------------------------------------------------ LC cell --

/// (tau_charge scale, drive pattern seed)
class LcCellProperty : public ::testing::TestWithParam<std::pair<double, int>> {};

TEST_P(LcCellProperty, StepIsSampleRateInvariantUnderRandomDrive) {
  const auto [tau_scale, seed] = GetParam();
  lcm::LcTimings t;
  t.tau_charge_s *= tau_scale;
  t.tau_relax_s *= tau_scale;
  lcm::LcCell coarse(t);
  lcm::LcCell fine(t);
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int step = 0; step < 200; ++step) {
    const bool driven = rng.bernoulli();
    (void)coarse.step(driven, rt::ms(0.2));
    for (int i = 0; i < 20; ++i) (void)fine.step(driven, rt::ms(0.01));
    ASSERT_NEAR(coarse.state(), fine.state(), 1e-6);
    ASSERT_NEAR(coarse.memory(), fine.memory(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(TimingGrid, LcCellProperty,
                         ::testing::Values(std::pair{0.5, 1}, std::pair{1.0, 2},
                                           std::pair{2.0, 3}));

// ------------------------------------------------------- link budget --

class LinkBudgetProperty : public ::testing::TestWithParam<int> {};

TEST_P(LinkBudgetProperty, MonotoneAndInvertible) {
  const auto lb = GetParam() == 0 ? optics::LinkBudget::narrow_beam()
                                  : optics::LinkBudget::wide_beam();
  double prev = 1e18;
  for (double d = 0.5; d <= 12.0; d += 0.5) {
    const double snr = lb.snr_db_at(d);
    EXPECT_LT(snr, prev);
    EXPECT_NEAR(lb.distance_at_snr_db(snr), d, 1e-9);
    prev = snr;
  }
}

INSTANTIATE_TEST_SUITE_P(BothPresets, LinkBudgetProperty, ::testing::Values(0, 1));

// --------------------------------------------- end-to-end PHY configs --

// gtest prints this parameter's raw bytes into the ctest names, so the
// struct must have no padding: padding bytes hold whatever the stack held,
// and the names would change from run to run.
struct E2eConfig {
  int dsm_order;
  int bits_per_axis;
  double slot_ms;
  std::int64_t use_q;  ///< 0 or 1, full width so nothing pads the struct
};
static_assert(sizeof(E2eConfig) == 2 * sizeof(int) + sizeof(double) + sizeof(std::int64_t),
              "E2eConfig must have no padding bytes");

class EndToEndProperty : public ::testing::TestWithParam<E2eConfig> {};

TEST_P(EndToEndProperty, NoiselessRoundTripIsExact) {
  const auto cfg = GetParam();
  phy::PhyParams p;
  p.dsm_order = cfg.dsm_order;
  p.bits_per_axis = cfg.bits_per_axis;
  p.slot_s = rt::ms(cfg.slot_ms);
  p.charge_s = rt::ms(0.5);
  p.use_q_channel = cfg.use_q != 0;
  p.preamble_slots = 32;
  p.equalizer_branches = 8;

  const phy::Modulator mod(p);
  Rng rng(77);
  const auto bits = rng.bits(static_cast<std::size_t>(8 * p.bits_per_slot()));
  phy::ModulatorWorkspace mod_ws;
  phy::PacketSchedule pkt;
  mod.modulate_into(bits, mod_ws, pkt);

  sim::ChannelConfig chc;
  chc.pose.roll_rad = rt::deg_to_rad(15.0);
  sim::Channel channel(p, p.tag_config(), chc);
  auto rx = channel.noiseless_source_at(channel.config().pose)(
      pkt.firings, pkt.duration_s + p.symbol_duration_s());

  const phy::Demodulator demod(p, sim::train_offline_model(p, p.tag_config()));
  phy::DemodOptions opts;
  opts.search_limit = 2 * p.samples_per_slot();
  phy::DemodWorkspace ws;
  phy::DemodResult res;
  demod.demodulate_into(rx, pkt.layout.payload_slots, opts, ws, res);
  ASSERT_TRUE(res.preamble_found);
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(res.bits[i], bits[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, EndToEndProperty,
    ::testing::Values(E2eConfig{2, 1, 2.0, true},    // small L, wide slots
                      E2eConfig{4, 1, 1.0, true},    // unit-test default
                      E2eConfig{4, 2, 1.0, true},    // 16-PQAM
                      E2eConfig{8, 1, 0.5, true},    // paper 4 kbps
                      E2eConfig{8, 2, 0.5, true},    // paper 8 kbps
                      E2eConfig{4, 3, 1.0, true},    // 64-PQAM
                      E2eConfig{4, 2, 1.0, false},   // single-channel PAM
                      E2eConfig{16, 1, 0.25, true}   // 32 kbps timing, low order
                      ));

// ------------------------------------------------ preamble vs roll -----

class PreambleRollProperty : public ::testing::TestWithParam<double> {};

TEST_P(PreambleRollProperty, RotationEstimateMatchesPhysicalRoll) {
  const double roll_deg = GetParam();
  phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  const phy::PreambleProcessor pre(p);

  sim::ChannelConfig chc;
  chc.pose.roll_rad = rt::deg_to_rad(roll_deg);
  sim::Channel channel(p, p.tag_config(), chc);
  const auto rx = channel.noiseless_source_at(channel.config().pose)(
      phy::preamble_firings(p, 0), (p.preamble_slots + p.dsm_order) * p.slot_s);
  phy::PreambleWorkspace ws;
  const auto det = pre.detect(rx, 0, ws);
  ASSERT_TRUE(det.found) << roll_deg;
  // a must rotate by -2 * roll (mod 2 pi).
  const double got = std::arg(det.a);
  EXPECT_NEAR(std::remainder(got + 2.0 * rt::deg_to_rad(roll_deg), 2.0 * rt::kPi), 0.0, 0.02)
      << roll_deg;
}

INSTANTIATE_TEST_SUITE_P(RollSweep, PreambleRollProperty,
                         ::testing::Values(0.0, 15.0, 45.0, 90.0, 135.0, 170.0));

}  // namespace
}  // namespace rt
