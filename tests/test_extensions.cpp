// Tests for the extension modules: SNR estimation, the Stokes/Mueller
// reference model of the polarization shortcuts, the block interleaver and
// the convolutional code.
#include <gtest/gtest.h>

#include <cmath>

#include "coding/convolutional.h"
#include "coding/interleaver.h"
#include "common/rng.h"
#include "common/units.h"
#include "optics/polarization.h"
#include "signal/awgn.h"
#include "signal/snr_estimator.h"
#include "stokes_oracle.h"

namespace rt {
namespace {

// ----------------------------------------------------------- SNR est --

TEST(SnrEstimator, ReferenceBasedEstimateIsAccurate) {
  Rng rng(3);
  const std::size_t n = 20000;
  std::vector<sig::Complex> ref(n);
  for (auto& v : ref) v = sig::Complex(rng.gaussian(), rng.gaussian());
  for (const double snr_db : {5.0, 15.0, 30.0}) {
    double p_sig = 0.0;
    for (const auto& v : ref) p_sig += std::norm(v);
    p_sig /= static_cast<double>(n);
    const double sigma = std::sqrt(p_sig / rt::from_db(snr_db) / 2.0);
    std::vector<sig::Complex> rx(n);
    for (std::size_t i = 0; i < n; ++i)
      rx[i] = ref[i] + sig::Complex(rng.gaussian(0.0, sigma), rng.gaussian(0.0, sigma));
    const auto est = sig::estimate_snr(rx, ref);
    EXPECT_NEAR(est.snr_db, snr_db, 0.3) << snr_db;
  }
}

TEST(SnrEstimator, BlindEstimateOnConstantEnvelope) {
  Rng rng(5);
  std::vector<sig::Complex> rx(50000, sig::Complex(2.0, 1.0));
  const double p_sig = std::norm(sig::Complex(2.0, 1.0));
  const double snr_db = 12.0;
  const double sigma = std::sqrt(p_sig / rt::from_db(snr_db) / 2.0);
  for (auto& v : rx) v += sig::Complex(rng.gaussian(0.0, sigma), rng.gaussian(0.0, sigma));
  const auto est = sig::estimate_snr_blind(rx);
  EXPECT_NEAR(est.snr_db, snr_db, 0.4);
}

TEST(SnrEstimator, Validation) {
  const std::vector<sig::Complex> a(4), b(5);
  EXPECT_THROW((void)sig::estimate_snr(a, b), PreconditionError);
  EXPECT_THROW((void)sig::estimate_snr_blind(std::span<const sig::Complex>(a)), PreconditionError);
}

// ------------------------------------------------------------- Stokes --

TEST(Stokes, MalusLawEmergesFromMuellerCalculus) {
  for (double in_angle = 0.0; in_angle < rt::kPi; in_angle += 0.2) {
    for (double pol = 0.0; pol < rt::kPi; pol += 0.25) {
      const auto s = optics::Stokes::linear(1.0, in_angle);
      const double direct = optics::malus_intensity({1.0, in_angle, 1.0}, pol);
      EXPECT_NEAR(optics::detect_through_polarizer(s, pol), direct, 1e-12);
    }
  }
}

TEST(Stokes, PdrReadingMatchesChannelCoefficient) {
  // The scalar fast-path coefficient cos 2(theta_t - theta_r) is exactly
  // the Mueller-calculus PDR reading.
  for (double t = 0.0; t < rt::kPi; t += 0.17) {
    for (double r = 0.0; r < rt::kPi; r += 0.23) {
      const auto s = optics::Stokes::linear(1.0, t);
      EXPECT_NEAR(optics::pdr_reading(s, r), optics::channel_coefficient(t, r), 1e-12);
    }
  }
}

TEST(Stokes, LcCellMixtureReproducesPixelModel) {
  // The pixel model's (2c - 1) swing on the e^{j2 theta_b} axis is the
  // incoherent mixture of identity and 90deg rotation.
  const double theta_b = rt::deg_to_rad(30.0);
  for (double c = 0.0; c <= 1.0; c += 0.1) {
    const auto cell = optics::Mueller::lc_cell(c);
    const auto out = cell * optics::Stokes::linear(1.0, theta_b);
    // PDR reading at 0 and 45deg = complex contribution (Re, Im).
    const double re = optics::pdr_reading(out, 0.0);
    const double im = optics::pdr_reading(out, rt::deg_to_rad(45.0));
    const auto expect = (2.0 * c - 1.0) * optics::pdr_response(theta_b);
    EXPECT_NEAR(re, expect.real(), 1e-12) << c;
    EXPECT_NEAR(im, expect.imag(), 1e-12) << c;
  }
}

TEST(Stokes, UnpolarizedLightGivesZeroPdr) {
  const auto amb = optics::Stokes::unpolarized(123.0);
  for (double r = 0.0; r < rt::kPi; r += 0.3) EXPECT_NEAR(optics::pdr_reading(amb, r), 0.0, 1e-9);
  EXPECT_NEAR(amb.degree_of_polarization(), 0.0, 1e-12);
}

TEST(Stokes, QuarterWavePlateMakesCircular) {
  // Linear 45deg light through a QWP at 0deg becomes circular (V = +-I).
  const auto in = optics::Stokes::linear(1.0, rt::deg_to_rad(45.0));
  const auto out = optics::Mueller::retarder(rt::kPi / 2.0, 0.0) * in;
  EXPECT_NEAR(std::abs(out.v), 1.0, 1e-12);
  EXPECT_NEAR(out.q, 0.0, 1e-12);
  EXPECT_NEAR(out.degree_of_polarization(), 1.0, 1e-12);
}

TEST(Stokes, RotatorShiftsLinearAngle) {
  const auto in = optics::Stokes::linear(2.0, rt::deg_to_rad(10.0));
  const auto out = optics::Mueller::rotator(rt::deg_to_rad(35.0)) * in;
  EXPECT_NEAR(rt::rad_to_deg(out.linear_angle_rad()), 45.0, 1e-9);
  EXPECT_NEAR(out.i, 2.0, 1e-12);  // rotation is lossless
}

// -------------------------------------------------------- interleaver --

TEST(Interleaver, RoundTripIdentity) {
  coding::BlockInterleaver il(8, 16);
  Rng rng(23);
  const auto data = rng.bytes(il.block_size() * 3);
  std::vector<std::uint8_t> mixed;
  std::vector<std::uint8_t> restored;
  il.interleave_into(std::span<const std::uint8_t>(data), mixed);
  il.deinterleave_into(std::span<const std::uint8_t>(mixed), restored);
  EXPECT_EQ(restored, data);
}

TEST(Interleaver, SpreadsBursts) {
  coding::BlockInterleaver il(8, 16);
  // A burst of 8 consecutive symbols in the interleaved domain lands in 8
  // distinct rows after deinterleaving => <= 1 error per row.
  std::vector<std::uint8_t> clean(il.block_size(), 0);
  std::vector<std::uint8_t> corrupted;
  il.interleave_into(std::span<const std::uint8_t>(clean), corrupted);
  for (std::size_t i = 40; i < 48; ++i) corrupted[i] = 1;
  std::vector<std::uint8_t> restored;
  il.deinterleave_into(std::span<const std::uint8_t>(corrupted), restored);
  // Count errors per row of the original layout.
  for (std::size_t r = 0; r < 8; ++r) {
    int row_errors = 0;
    for (std::size_t c = 0; c < 16; ++c) row_errors += restored[r * 16 + c];
    EXPECT_LE(row_errors, 1) << "row " << r;
  }
}

TEST(Interleaver, RejectsPartialBlocks) {
  coding::BlockInterleaver il(4, 4);
  const std::vector<std::uint8_t> partial(10, 0);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(il.interleave_into(std::span<const std::uint8_t>(partial), out),
               PreconditionError);
  EXPECT_THROW(il.deinterleave_into(std::span<const std::uint8_t>(partial), out),
               PreconditionError);
}

// ------------------------------------------------------ convolutional --

TEST(Convolutional, EncodeDecodeCleanChannel) {
  coding::ConvolutionalCode cc;
  coding::ConvWorkspace ws;
  Rng rng(29);
  const auto bits = rng.bits(200);
  std::vector<std::uint8_t> coded;
  cc.encode_into(bits, coded);
  EXPECT_EQ(coded.size(), 2 * (bits.size() + 6));
  std::vector<std::uint8_t> decoded;
  cc.decode_into(coded, ws, decoded);
  EXPECT_EQ(decoded, bits);
}

TEST(Convolutional, CorrectsScatteredErrors) {
  coding::ConvolutionalCode cc;
  coding::ConvWorkspace ws;
  Rng rng(31);
  const auto bits = rng.bits(300);
  std::vector<std::uint8_t> coded;
  cc.encode_into(bits, coded);
  // Flip well-separated bits (inside the free-distance budget per span).
  for (std::size_t i = 10; i + 40 < coded.size(); i += 40) coded[i] ^= 1;
  std::vector<std::uint8_t> decoded;
  cc.decode_into(coded, ws, decoded);
  EXPECT_EQ(decoded, bits);
}

TEST(Convolutional, BerImprovesOverUncodedAtModerateNoise) {
  coding::ConvolutionalCode cc;
  coding::ConvWorkspace ws;
  Rng rng(37);
  const double p_flip = 0.02;
  std::size_t raw_errors = 0;
  std::size_t dec_errors = 0;
  std::size_t total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = rng.bits(256);
    std::vector<std::uint8_t> coded;
    cc.encode_into(bits, coded);
    std::size_t flips = 0;
    for (auto& b : coded)
      if (rng.bernoulli(p_flip)) {
        b ^= 1;
        ++flips;
      }
    raw_errors += flips / 2;  // equivalent uncoded exposure
    std::vector<std::uint8_t> dec;
    cc.decode_into(coded, ws, dec);
    for (std::size_t i = 0; i < bits.size(); ++i) dec_errors += dec[i] != bits[i];
    total += bits.size();
  }
  EXPECT_LT(static_cast<double>(dec_errors) / total,
            0.25 * static_cast<double>(raw_errors) / total);
}

TEST(Convolutional, ParameterValidation) {
  EXPECT_THROW(coding::ConvolutionalCode(2, 07, 05), PreconditionError);
  EXPECT_THROW(coding::ConvolutionalCode(7, 0400, 0171), PreconditionError);  // no newest tap
  EXPECT_THROW(coding::ConvolutionalCode(3, 0777, 05), PreconditionError);    // too wide
}

}  // namespace
}  // namespace rt
