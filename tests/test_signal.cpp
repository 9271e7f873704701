// Unit + property tests for the DSP substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "kernels/kernels.h"
#include "signal/awgn.h"
#include "signal/correlate.h"
#include "signal/fir.h"
#include "signal/gray.h"
#include "signal/mls.h"
#include "signal/scrambler.h"
#include "signal/waveform.h"

namespace rt::sig {
namespace {

/// Plain normalized cross-correlation magnitude of `ref` against every
/// alignment of `x` (output length: x.size() - ref.size() + 1): the oracle
/// the centred form is checked against on zero-mean data.
std::vector<double> sliding_correlation(std::span<const Complex> x, std::span<const Complex> ref) {
  if (ref.empty() || x.size() < ref.size()) return {};
  const std::size_t n = x.size() - ref.size() + 1;
  double ref_energy = 0.0;
  for (const auto& r : ref) ref_energy += std::norm(r);
  std::vector<double> out(n, 0.0);
  if (ref_energy == 0.0) return out;
  for (std::size_t t = 0; t < n; ++t) {
    const Complex acc = kernels::cdotc(ref.size(), ref.data(), x.data() + t);
    const double x_energy = kernels::sum_norm_cplx(ref.size(), x.data() + t);
    out[t] = x_energy > 0.0 ? std::abs(acc) / std::sqrt(ref_energy * x_energy) : 0.0;
  }
  return out;
}

/// The centred correlation of `ref` against `x`, through the form the
/// preamble detector runs.
std::vector<double> centered_correlation(std::span<const Complex> x, std::span<const Complex> ref) {
  SlidingScratch scratch;
  std::vector<double> corr;
  sliding_correlation_centered_into(x, make_centered_ref(ref), scratch, corr);
  return corr;
}

Waveform make_tone(double fs, double f, std::size_t n, double amp = 1.0) {
  Waveform w(fs, n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = amp * std::sin(2.0 * kPi * f * static_cast<double>(i) / fs);
  return w;
}

TEST(Waveform, DurationAndIndexing) {
  Waveform w(1000.0, 500);
  EXPECT_DOUBLE_EQ(w.duration_s(), 0.5);
  EXPECT_EQ(w.index_at(0.1), 100u);
}

TEST(Waveform, MeanPowerOfTone) {
  const auto w = make_tone(10000.0, 100.0, 10000, 2.0);
  EXPECT_NEAR(w.mean_power(), 2.0, 0.01);  // A^2/2
}

TEST(Waveform, AccumulateWithOffset) {
  Waveform a(100.0, 10);
  Waveform b(100.0, 3);
  b.samples = {1.0, 2.0, 3.0};
  accumulate(a, b, 8);  // only two samples fit
  EXPECT_DOUBLE_EQ(a[8], 1.0);
  EXPECT_DOUBLE_EQ(a[9], 2.0);
}

TEST(Waveform, RmsError) {
  Waveform a(1.0, std::vector<double>{1.0, 1.0});
  Waveform b(1.0, std::vector<double>{1.0, 0.0});
  EXPECT_NEAR(rms_error(a, b), std::sqrt(0.5), 1e-12);
}

TEST(Fir, LowPassPassesDcBlocksHighTone) {
  const double fs = 48000.0;
  auto lp = FirFilter::low_pass(fs, 2000.0, 101);
  // DC gain ~= 1.
  Waveform dc(fs, 2000);
  for (auto& s : dc.samples) s = 1.0;
  const auto dc_out = lp.apply(dc);
  EXPECT_NEAR(dc_out[1000], 1.0, 1e-3);
  // 10 kHz tone strongly attenuated.
  const auto tone = make_tone(fs, 10000.0, 4000);
  const auto out = lp.apply(tone);
  double peak = 0.0;
  for (std::size_t i = 1000; i < 3000; ++i) peak = std::max(peak, std::abs(out[i]));
  EXPECT_LT(peak, 0.01);
}

TEST(Fir, BandPassSelectsCarrier) {
  const double fs = 1.82e6;  // 4x the 455 kHz carrier
  auto bp = FirFilter::band_pass(fs, 400e3, 510e3, 129);
  const auto in_band = make_tone(fs, 455e3, 8000);
  const auto dc_blocked = [&] {
    Waveform dc(fs, 8000);
    for (auto& s : dc.samples) s = 1.0;
    return bp.apply(dc);
  }();
  const auto carrier_out = bp.apply(in_band);
  double carrier_peak = 0.0;
  double dc_peak = 0.0;
  for (std::size_t i = 2000; i < 6000; ++i) {
    carrier_peak = std::max(carrier_peak, std::abs(carrier_out[i]));
    dc_peak = std::max(dc_peak, std::abs(dc_blocked[i]));
  }
  EXPECT_GT(carrier_peak, 0.9);  // centre-band gain normalized to ~1
  EXPECT_LT(dc_peak, 0.01);      // ambient (DC) light rejected
}

TEST(Fir, GroupDelayCompensated) {
  // A step should stay time-aligned after filtering.
  const double fs = 10000.0;
  auto lp = FirFilter::low_pass(fs, 1000.0, 51);
  Waveform step(fs, 400);
  for (std::size_t i = 200; i < 400; ++i) step[i] = 1.0;
  const auto out = lp.apply(step);
  // The 50% crossing should be within a few samples of 200.
  std::size_t crossing = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] > 0.5) {
      crossing = i;
      break;
    }
  EXPECT_NEAR(static_cast<double>(crossing), 200.0, 3.0);
}

TEST(Fir, DesignValidation) {
  EXPECT_THROW((void)FirFilter::low_pass(1000.0, 600.0, 11), PreconditionError);  // above Nyquist
  EXPECT_THROW((void)FirFilter::low_pass(1000.0, 100.0, 10), PreconditionError);  // even taps
  EXPECT_THROW((void)FirFilter::band_pass(1000.0, 300.0, 200.0, 11), PreconditionError);
}

TEST(Fir, DecimateKeepsEveryNth) {
  Waveform w(1000.0, 10);
  for (std::size_t i = 0; i < 10; ++i) w[i] = static_cast<double>(i);
  const auto d = decimate(w, 3);
  EXPECT_DOUBLE_EQ(d.sample_rate_hz, 1000.0 / 3.0);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[2], 6.0);
}

TEST(Awgn, AchievesRequestedSnr) {
  Rng rng(41);
  auto w = make_tone(40000.0, 250.0, 200000);
  const double p_sig = w.mean_power();
  auto noisy = w;
  add_awgn(noisy, 10.0, rng);
  double p_noise = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double d = noisy[i] - w[i];
    p_noise += d * d;
  }
  p_noise /= static_cast<double>(w.size());
  EXPECT_NEAR(to_db(p_sig / p_noise), 10.0, 0.2);
}

TEST(Awgn, ComplexNoiseSplitsAcrossAxes) {
  Rng rng(43);
  IqWaveform w(1000.0, 100000);
  for (auto& s : w.samples) s = Complex(1.0, 0.0);
  auto noisy = w;
  add_awgn(noisy, 20.0, rng);
  double pi = 0.0;
  double pq = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const Complex d = noisy[i] - w[i];
    pi += d.real() * d.real();
    pq += d.imag() * d.imag();
  }
  EXPECT_NEAR(pi / pq, 1.0, 0.1);
  EXPECT_NEAR(to_db(w.mean_power() / ((pi + pq) / static_cast<double>(w.size()))), 20.0, 0.3);
}

class MlsOrderTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MlsOrderTest, HasMaximalLengthProperties) {
  const unsigned order = GetParam();
  const auto seq = mls(order);
  EXPECT_EQ(seq.size(), (std::size_t{1} << order) - 1);
  EXPECT_TRUE(is_maximal_length(seq, order)) << "order " << order;
}

INSTANTIATE_TEST_SUITE_P(AllSupportedOrders, MlsOrderTest,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 14u,
                                           15u, 16u, 17u, 18u, 19u, 20u));

TEST(Mls, RejectsUnsupportedOrder) {
  EXPECT_THROW((void)mls(1), PreconditionError);
  EXPECT_THROW((void)mls(25), PreconditionError);
}

TEST(Scrambler, RoundTripIdentity) {
  Rng rng(47);
  const auto bits = rng.bits(1024);
  Scrambler sc(0x55);
  auto twice = bits;
  sc.apply_in_place(twice);
  EXPECT_NE(twice, bits);
  sc.apply_in_place(twice);
  EXPECT_EQ(twice, bits);
}

TEST(Scrambler, WhitensConstantInput) {
  std::vector<std::uint8_t> out(4096, 0);
  Scrambler sc;
  sc.apply_in_place(out);
  std::size_t ones = 0;
  for (const auto b : out) ones += b;
  // Keystream of a 7-bit LFSR over 4096 bits is near balanced.
  EXPECT_NEAR(static_cast<double>(ones) / 4096.0, 0.5, 0.05);
}

TEST(Gray, RoundTripAndAdjacency) {
  for (std::uint32_t v = 0; v < 256; ++v) EXPECT_EQ(gray_decode(gray_encode(v)), v);
  for (std::uint32_t v = 0; v + 1 < 256; ++v) {
    const std::uint32_t diff = gray_encode(v) ^ gray_encode(v + 1);
    EXPECT_EQ(__builtin_popcount(diff), 1) << v;  // adjacent codes differ in 1 bit
  }
}

TEST(Correlate, FindsEmbeddedReference) {
  Rng rng(53);
  std::vector<Complex> ref(32);
  for (auto& r : ref) r = Complex(rng.gaussian(), rng.gaussian());
  std::vector<Complex> x(256);
  for (auto& v : x) v = Complex(rng.gaussian(0.0, 0.1), rng.gaussian(0.0, 0.1));
  const std::size_t t0 = 100;
  for (std::size_t i = 0; i < ref.size(); ++i) x[t0 + i] += ref[i];
  const auto corr = centered_correlation(x, ref);
  std::size_t best = 0;
  for (std::size_t i = 1; i < corr.size(); ++i)
    if (corr[i] > corr[best]) best = i;
  EXPECT_EQ(best, t0);
}

TEST(Correlate, CenteredVariantFlatOnConstantSignal) {
  // A constant (DC-only) signal has zero centred energy everywhere: the
  // centred correlation must return 0, not NaN or spurious peaks.
  std::vector<Complex> ref(8, Complex(1.0, 0.0));
  std::vector<Complex> x(64, Complex(5.0, -2.0));
  SlidingScratch scratch;
  std::vector<double> corr;
  sliding_correlation_centered_into(x, make_centered_ref(ref), scratch, corr);
  ASSERT_EQ(corr.size(), x.size() - ref.size() + 1);
  for (const auto c : corr) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Correlate, CenteredMatchesPlainOnZeroMeanData) {
  Rng rng(61);
  std::vector<Complex> ref(32);
  Complex mean{};
  for (auto& r : ref) {
    r = Complex(rng.gaussian(), rng.gaussian());
    mean += r;
  }
  mean /= 32.0;
  for (auto& r : ref) r -= mean;  // zero-mean reference
  std::vector<Complex> x(200);
  for (auto& v : x) v = Complex(rng.gaussian(0.0, 0.1), rng.gaussian(0.0, 0.1));
  for (std::size_t i = 0; i < ref.size(); ++i) x[90 + i] += ref[i];
  const auto plain = sliding_correlation(x, ref);
  const auto centred = centered_correlation(x, ref);
  // Peaks coincide.
  const auto argmax = [](const std::vector<double>& v) {
    return std::distance(v.begin(), std::max_element(v.begin(), v.end()));
  };
  EXPECT_EQ(argmax(plain), argmax(centred));
  EXPECT_EQ(argmax(plain), 90);
}

TEST(Correlate, RotationInvariantMagnitude) {
  Rng rng(59);
  std::vector<Complex> ref(16);
  for (auto& r : ref) r = Complex(rng.gaussian(), rng.gaussian());
  std::vector<Complex> rotated(ref.size());
  const Complex rot = std::polar(1.0, 1.1);
  for (std::size_t i = 0; i < ref.size(); ++i) rotated[i] = ref[i] * rot;
  const auto corr = centered_correlation(rotated, ref);
  ASSERT_EQ(corr.size(), 1u);
  EXPECT_NEAR(corr[0], 1.0, 1e-12);
}

}  // namespace
}  // namespace rt::sig
