#include "phy/preamble.h"

#include <algorithm>

#include "common/error.h"
#include "kernels/kernels.h"
#include "lcm/tag_array.h"
#include "linalg/least_squares.h"
#include "obs/trace.h"
#include "signal/correlate.h"

namespace rt::phy {

PreambleProcessor::PreambleProcessor(const PhyParams& params) : p_(params) {
  p_.validate();
  // Ideal tag: the paper's reference is "collected and calibrated to be
  // rotation-free" at high SNR; our equivalent is the noiseless simulator
  // with zero heterogeneity. Include one DSM symbol of tail: the trailing
  // discharges are part of the deterministic preamble response and add
  // matching energy.
  const double duration = (p_.preamble_slots + p_.dsm_order) * p_.slot_s;
  reference_ = lcm::modulated_response(p_.tag_config(), preamble_firings(p_, 0),
                                       p_.sample_rate_hz, duration);
  // Cache what detect()/regress() would otherwise recompute per call: the
  // zero-mean correlation reference and the raw reference energy.
  centered_ref_ = sig::make_centered_ref(reference_);
  for (const auto& v : reference_) ref_energy_ += std::norm(v);
}

double PreambleProcessor::regress(const sig::IqWaveform& rx, std::size_t offset, Complex& a,
                                  Complex& b, Complex& c, PreambleWorkspace& ws) const {
  const std::size_t k = reference_.size();
  if (offset + k > rx.size()) return 1.0;
  RT_OBS_COUNT(kLsSolves, 1);
  ws.design.resize(k, 3);
  ws.y.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Complex x = rx[offset + i];
    ws.design(i, 0) = x;
    ws.design(i, 1) = std::conj(x);
    ws.design(i, 2) = Complex(1.0, 0.0);
    ws.y[i] = reference_[i];
  }
  const auto sol =
      linalg::solve_least_squares_into(ws.design, std::span<const Complex>(ws.y), ws.ls);
  if (sol.empty()) {
    // X and conj(X) become linearly dependent when the signal is confined
    // to one polarization axis (single-channel baselines); refit without
    // the I/Q-imbalance term.
    ws.reduced.resize(k, 2);
    for (std::size_t i = 0; i < k; ++i) {
      ws.reduced(i, 0) = ws.design(i, 0);
      ws.reduced(i, 1) = Complex(1.0, 0.0);
    }
    const auto sol2 =
        linalg::solve_least_squares_into(ws.reduced, std::span<const Complex>(ws.y), ws.ls);
    if (sol2.empty()) return 1.0;  // fully degenerate window (e.g. all-zero signal)
    a = sol2[0];
    b = Complex{};
    c = sol2[1];
    if (ref_energy_ == 0.0) return 1.0;
    return linalg::residual_norm(ws.reduced, sol2, std::span<const Complex>(ws.y)) /
           std::sqrt(ref_energy_);
  }
  a = sol[0];
  b = sol[1];
  c = sol[2];
  if (ref_energy_ == 0.0) return 1.0;
  const double resid = linalg::residual_norm(ws.design, sol, std::span<const Complex>(ws.y));
  return resid / std::sqrt(ref_energy_);
}

PreambleDetection PreambleProcessor::detect(const sig::IqWaveform& rx, std::size_t search_limit,
                                            PreambleWorkspace& ws) const {
  RT_TRACE_SPAN("preamble_detect");
  RT_ENSURE(rx.sample_rate_hz == p_.sample_rate_hz,
            "received waveform sample rate does not match the PHY parameters");
  PreambleDetection det;
  if (rx.size() < reference_.size()) return det;

  // Stage 1: rotation-invariant coarse search, mean-invariant per window
  // (the raw signal carries the static bias of all relaxed pixels; the
  // regression's c term handles DC exactly in stage 2). Only the allowed
  // start-sample range is correlated.
  std::span<const Complex> haystack(rx.samples);
  if (search_limit > 0) {
    const std::size_t needed = search_limit + reference_.size();
    haystack = haystack.subspan(0, std::min(haystack.size(), needed));
  }
  sig::sliding_correlation_centered_into(haystack, centered_ref_, ws.corr_scratch, ws.corr);
  const auto& corr = ws.corr;
  if (corr.empty()) return det;
  std::size_t coarse = 0;
  for (std::size_t i = 1; i < corr.size(); ++i)
    if (corr[i] > corr[coarse]) coarse = i;

  // Stage 2: regression refinement in a +-3 sample neighbourhood.
  const std::size_t lo = coarse >= 3 ? coarse - 3 : 0;
  const std::size_t hi = std::min(coarse + 3, rx.size() - reference_.size());
  double best_resid = 2.0;
  for (std::size_t t = lo; t <= hi; ++t) {
    Complex a;
    Complex b;
    Complex c;
    const double r = regress(rx, t, a, b, c, ws);
    if (r < best_resid) {
      best_resid = r;
      det.start_sample = t;
      det.a = a;
      det.b = b;
      det.c = c;
    }
  }
  det.normalized_residual = best_resid;
  det.correlation_peak = corr[coarse];
  RT_OBS_OBSERVE(kPreambleResidual, best_resid);
  // Receiver-side SNR estimate (section 4.4): apply the winning regression
  // coefficients to the preamble window and compare against the known
  // reference -- signal power from the reference, noise power from what the
  // fit could not explain. This is what the closed rate-adaptation loop
  // feeds to the rate table; the estimate is capped-finite even when the
  // residual is zero (noiseless channel).
  if (det.start_sample + reference_.size() <= rx.size()) {
    const std::size_t k = reference_.size();
    ws.fitted.resize(k);
    kernels::wl_transform(k, rx.samples.data() + det.start_sample, ws.fitted.data(), det.a,
                          det.b, det.c);
    det.snr = sig::estimate_snr(ws.fitted, reference_);
  }
  // Two acceptance paths: a clean regression fit (high SNR), or a strong
  // normalized correlation peak. The latter carries the full processing
  // gain of the preamble length, which is what lets low-rate links
  // synchronize below 0 dB per-sample SNR (paper: 1 Kbps at -5 dB).
  det.found = best_resid < kResidThreshold || det.correlation_peak > kCorrThreshold;
  return det;
}

void PreambleProcessor::correct_in_place(sig::IqWaveform& rx,
                                         const PreambleDetection& det) const {
  RT_TRACE_SPAN("preamble_correct");
  RT_ENSURE(rx.sample_rate_hz == p_.sample_rate_hz,
            "received waveform sample rate does not match the PHY parameters");
  RT_DCHECK_FINITE(det.a);
  RT_DCHECK_FINITE(det.b);
  RT_DCHECK_FINITE(det.c);
  // In-place widely-linear correction: the kernel is elementwise, so
  // src == dst aliasing is safe under both backends.
  kernels::wl_transform(rx.size(), rx.samples.data(), rx.samples.data(), det.a, det.b, det.c);
}

}  // namespace rt::phy
