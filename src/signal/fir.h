// Windowed-sinc FIR filter design and application.
//
// The reader front end (paper section 6) band-passes the photodiode signal
// around the 455 kHz switching carrier to reject ambient light (which is DC
// after photodetection) before IQ down-conversion and decimation.
#pragma once

#include <vector>

#include "signal/waveform.h"

namespace rt::sig {

/// FIR filter described by its tap vector; applies via direct convolution.
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> taps);

  /// Designs a low-pass filter (Hamming window) with given cutoff.
  [[nodiscard]] static FirFilter low_pass(double sample_rate_hz, double cutoff_hz,
                                          std::size_t num_taps);

  /// Designs a band-pass filter between [low_hz, high_hz].
  [[nodiscard]] static FirFilter band_pass(double sample_rate_hz, double low_hz, double high_hz,
                                           std::size_t num_taps);

  [[nodiscard]] const std::vector<double>& taps() const { return taps_; }

  /// Group delay in samples ((N-1)/2 for the symmetric designs here).
  [[nodiscard]] std::size_t group_delay() const { return (taps_.size() - 1) / 2; }

  /// Filters a real waveform (same length output, zero-padded edges,
  /// group delay compensated so features stay time-aligned).
  [[nodiscard]] Waveform apply(const Waveform& in) const;

  /// Filters a complex waveform.
  [[nodiscard]] IqWaveform apply(const IqWaveform& in) const;

 private:
  template <typename T>
  [[nodiscard]] BasicWaveform<T> apply_impl(const BasicWaveform<T>& in) const;

  std::vector<double> taps_;
  /// Taps in reversed order, so the kernel-layer convolution can walk both
  /// operands ascending.
  std::vector<double> taps_rev_;
};

/// Keeps every `factor`-th sample (caller is responsible for pre-filtering).
[[nodiscard]] IqWaveform decimate(const IqWaveform& in, std::size_t factor);
[[nodiscard]] Waveform decimate(const Waveform& in, std::size_t factor);

}  // namespace rt::sig
