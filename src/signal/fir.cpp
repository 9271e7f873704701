#include "signal/fir.h"

#include <cmath>
#include <type_traits>

#include "common/error.h"
#include "common/units.h"
#include "kernels/kernels.h"

namespace rt::sig {

namespace {

/// sin(x)/x with the removable singularity handled.
double sinc(double x) { return x == 0.0 ? 1.0 : std::sin(x) / x; }

std::vector<double> hamming_window(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = 0.54 - 0.46 * std::cos(2.0 * kPi * static_cast<double>(i) / static_cast<double>(n - 1));
  return w;
}

}  // namespace

FirFilter::FirFilter(std::vector<double> taps)
    : taps_(std::move(taps)), taps_rev_(taps_.rbegin(), taps_.rend()) {
  RT_ENSURE(!taps_.empty(), "FIR filter needs at least one tap");
  RT_ENSURE(taps_.size() % 2 == 1, "FIR designs here use odd tap counts (integer group delay)");
}

FirFilter FirFilter::low_pass(double sample_rate_hz, double cutoff_hz, std::size_t num_taps) {
  RT_ENSURE(sample_rate_hz > 0.0 && cutoff_hz > 0.0, "rates must be positive");
  RT_ENSURE(cutoff_hz < sample_rate_hz / 2.0, "cutoff must be below Nyquist");
  RT_ENSURE(num_taps >= 3 && num_taps % 2 == 1, "need an odd tap count >= 3");
  const double fc = cutoff_hz / sample_rate_hz;  // normalized (cycles/sample)
  const auto w = hamming_window(num_taps);
  std::vector<double> taps(num_taps);
  const double mid = static_cast<double>(num_taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double x = static_cast<double>(i) - mid;
    taps[i] = 2.0 * fc * sinc(2.0 * kPi * fc * x) * w[i];
    sum += taps[i];
  }
  // Normalize to unity DC gain.
  for (auto& t : taps) t /= sum;
  return FirFilter(std::move(taps));
}

FirFilter FirFilter::band_pass(double sample_rate_hz, double low_hz, double high_hz,
                               std::size_t num_taps) {
  RT_ENSURE(low_hz > 0.0 && high_hz > low_hz, "need 0 < low < high");
  RT_ENSURE(high_hz < sample_rate_hz / 2.0, "high edge must be below Nyquist");
  RT_ENSURE(num_taps >= 3 && num_taps % 2 == 1, "need an odd tap count >= 3");
  // Band-pass = high-cutoff low-pass minus low-cutoff low-pass, built from
  // un-normalized kernels so the subtraction is spectrally correct.
  std::vector<double> taps(num_taps);
  const auto build = [&](double cutoff) {
    const double fc = cutoff / sample_rate_hz;
    const auto w = hamming_window(num_taps);
    std::vector<double> t(num_taps);
    const double mid = static_cast<double>(num_taps - 1) / 2.0;
    for (std::size_t i = 0; i < num_taps; ++i) {
      const double x = static_cast<double>(i) - mid;
      t[i] = 2.0 * fc * sinc(2.0 * kPi * fc * x) * w[i];
    }
    return t;
  };
  const auto hi = build(high_hz);
  const auto lo = build(low_hz);
  for (std::size_t i = 0; i < num_taps; ++i) taps[i] = hi[i] - lo[i];
  // Normalize to unity gain at band centre.
  const double f0 = (low_hz + high_hz) / 2.0 / sample_rate_hz;
  double re = 0.0;
  double im = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    re += taps[i] * std::cos(2.0 * kPi * f0 * static_cast<double>(i));
    im -= taps[i] * std::sin(2.0 * kPi * f0 * static_cast<double>(i));
  }
  const double gain = std::sqrt(re * re + im * im);
  RT_ENSURE(gain > 1e-12, "band-pass design produced zero centre gain");
  for (auto& t : taps) t /= gain;
  return FirFilter(std::move(taps));
}

template <typename T>
BasicWaveform<T> FirFilter::apply_impl(const BasicWaveform<T>& in) const {
  BasicWaveform<T> out(in.sample_rate_hz, in.size());
  const std::size_t delay = group_delay();
  const auto n = static_cast<std::ptrdiff_t>(in.size());
  const auto nt = static_cast<std::ptrdiff_t>(taps_.size());
  const auto d = static_cast<std::ptrdiff_t>(delay);
  // Edge samples -- where the tap window clips either end of the input --
  // keep the guarded per-tap walk of the original loop.
  const auto edge = [&](std::ptrdiff_t i) {
    T acc{};
    // Output sample i corresponds to input centred at i (delay compensated).
    const std::ptrdiff_t base = i + d;
    for (std::ptrdiff_t k = 0; k < nt; ++k) {
      const std::ptrdiff_t j = base - k;
      if (j < 0 || j >= n) continue;
      acc += in.samples[static_cast<std::size_t>(j)] * taps_[static_cast<std::size_t>(k)];
    }
    out.samples[static_cast<std::size_t>(i)] = acc;
  };
  // Interior: the full window [base - nt + 1, base] is in range, so the
  // bounds checks drop out and the tap dot runs through the kernel layer
  // as an ascending dot of the window with the reversed taps (summed in
  // the kernels' lane order).
  const std::ptrdiff_t lo = std::min(n, nt - 1 - d);
  const std::ptrdiff_t hi = std::max(lo, std::min(n, n - d));
  for (std::ptrdiff_t i = 0; i < lo; ++i) edge(i);
  for (std::ptrdiff_t i = lo; i < hi; ++i) {
    const T* xw = in.samples.data() + (i + d - (nt - 1));
    T& y = out.samples[static_cast<std::size_t>(i)];
    if constexpr (std::is_same_v<T, Complex>) {
      y = kernels::fir_dot(taps_.size(), taps_rev_.data(), xw);
    } else {
      y = kernels::dot_real(taps_.size(), taps_rev_.data(), xw);
    }
  }
  for (std::ptrdiff_t i = hi; i < n; ++i) edge(i);
  return out;
}

Waveform FirFilter::apply(const Waveform& in) const { return apply_impl(in); }
IqWaveform FirFilter::apply(const IqWaveform& in) const { return apply_impl(in); }

namespace {

template <typename T>
BasicWaveform<T> decimate_impl(const BasicWaveform<T>& in, std::size_t factor) {
  RT_ENSURE(factor >= 1, "decimation factor must be >= 1");
  BasicWaveform<T> out(in.sample_rate_hz / static_cast<double>(factor),
                       (in.size() + factor - 1) / factor);
  for (std::size_t i = 0, j = 0; i < in.size(); i += factor, ++j) out.samples[j] = in.samples[i];
  return out;
}

}  // namespace

IqWaveform decimate(const IqWaveform& in, std::size_t factor) { return decimate_impl(in, factor); }
Waveform decimate(const Waveform& in, std::size_t factor) { return decimate_impl(in, factor); }

}  // namespace rt::sig
