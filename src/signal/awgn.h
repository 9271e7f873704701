// Additive white Gaussian noise injection and SNR bookkeeping.
//
// The paper's trace-driven emulation (section 7.3) superimposes AWGN of
// controlled level on recorded reference waveforms; these helpers implement
// that, for both real photodiode traces and complex two-channel signals.
#pragma once

#include "common/rng.h"
#include "common/units.h"
#include "signal/waveform.h"

namespace rt::sig {

/// Adds real AWGN such that the resulting SNR (signal mean power over noise
/// power) equals `snr_db`, measuring signal power from the waveform itself.
inline void add_awgn(Waveform& w, double snr_db, Rng& rng) {
  const double p = w.mean_power();
  if (p == 0.0) return;
  const double sigma = std::sqrt(p / from_db(snr_db));
  for (auto& s : w.samples) s += rng.gaussian(0.0, sigma);
}

/// Adds circularly-symmetric complex AWGN at the given SNR. Noise power is
/// split evenly between the I and Q (0deg / 45deg polarization) channels.
inline void add_awgn(IqWaveform& w, double snr_db, Rng& rng) {
  const double p = w.mean_power();
  if (p == 0.0) return;
  const double sigma = std::sqrt(p / from_db(snr_db) / 2.0);
  for (auto& s : w.samples) s += Complex(rng.gaussian(0.0, sigma), rng.gaussian(0.0, sigma));
}

/// Adds noise with an absolute per-sample standard deviation (used by the
/// photodiode model where the noise floor is set by the circuit, not the
/// signal).
inline void add_noise_sigma(Waveform& w, double sigma, Rng& rng) {
  for (auto& s : w.samples) s += rng.gaussian(0.0, sigma);
}

inline void add_noise_sigma(IqWaveform& w, double sigma_per_axis, Rng& rng) {
  for (auto& s : w.samples)
    s += Complex(rng.gaussian(0.0, sigma_per_axis), rng.gaussian(0.0, sigma_per_axis));
}

}  // namespace rt::sig
