// Sliding-window correlation / matched filtering helpers used by the
// preamble detector.
#pragma once

#include <span>
#include <vector>

#include "kernels/kernels.h"
#include "signal/waveform.h"

namespace rt::sig {

/// A reference waveform pre-centred (zero mean) with its energy cached, so
/// repeated correlations against the same reference skip the per-call
/// centring pass. Build once with make_centered_ref().
struct CenteredRef {
  std::vector<Complex> ref;  ///< zero-mean reference samples
  double energy = 0.0;       ///< sum |ref_i|^2 after centring
};

[[nodiscard]] inline CenteredRef make_centered_ref(std::span<const Complex> ref_in) {
  CenteredRef out;
  out.ref.assign(ref_in.begin(), ref_in.end());
  if (out.ref.empty()) return out;
  Complex ref_mean{};
  for (const auto& r : out.ref) ref_mean += r;
  ref_mean /= static_cast<double>(out.ref.size());
  for (auto& r : out.ref) {
    r -= ref_mean;
    out.energy += std::norm(r);
  }
  return out;
}

/// Reusable prefix-sum scratch for sliding_correlation_centered_into().
struct SlidingScratch {
  std::vector<Complex> psum;
  std::vector<double> penergy;
};

/// Mean-invariant normalized correlation of a pre-centred reference
/// against every alignment of `x` (output length: x.size() - ref size + 1,
/// written into a caller-owned buffer). Both the reference and each window
/// of `x` are centred, so a DC offset (the relaxed-pixel baseline in VLBC
/// reception) cannot bias the peak: the zero-mean reference makes the
/// numerator window-DC-invariant for free, and the window energy is
/// corrected via prefix sums.
inline void sliding_correlation_centered_into(std::span<const Complex> x,
                                              const CenteredRef& cref, SlidingScratch& scratch,
                                              std::vector<double>& out) {
  const auto& ref = cref.ref;
  if (ref.empty() || x.size() < ref.size()) {
    out.clear();
    return;
  }
  const std::size_t n = x.size() - ref.size() + 1;
  out.assign(n, 0.0);
  if (cref.energy == 0.0) return;

  // Prefix sums for windowed mean/energy.
  scratch.psum.assign(x.size() + 1, Complex{});
  scratch.penergy.assign(x.size() + 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    scratch.psum[i + 1] = scratch.psum[i] + x[i];
    scratch.penergy[i + 1] = scratch.penergy[i] + std::norm(x[i]);
  }
  const auto k = ref.size();
  for (std::size_t t = 0; t < n; ++t) {
    const Complex acc = kernels::cdotc(k, ref.data(), x.data() + t);
    const Complex wsum = scratch.psum[t + k] - scratch.psum[t];
    const double wenergy = scratch.penergy[t + k] - scratch.penergy[t];
    const double centred_energy = wenergy - std::norm(wsum) / static_cast<double>(k);
    out[t] = centred_energy > 1e-300 ? std::abs(acc) / std::sqrt(cref.energy * centred_energy)
                                     : 0.0;
  }
}

/// Normalizes raw window sums into the centred correlation value:
/// acc / sqrt(ref_energy * (wenergy - |wsum|^2 / k)). The sums come from
/// kernels::corr_stats_split over one window alone, so the value is a pure
/// function of those k samples -- the streaming receiver's scan and sync
/// rely on that for chunk-size invariance.
[[nodiscard]] inline Complex centered_correlation_from_stats(const kernels::CorrStats& st,
                                                             double ref_energy, std::size_t k) {
  if (k == 0 || ref_energy == 0.0) return Complex{};
  const double centred_energy = st.wenergy - std::norm(st.wsum) / static_cast<double>(k);
  return centred_energy > 1e-300 ? st.acc / std::sqrt(ref_energy * centred_energy) : Complex{};
}

}  // namespace rt::sig
