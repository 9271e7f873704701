// Preamble detection and PQAM rotation correction (paper section 4.3.1).
//
// The detector matches the received signal against a rotation-free
// reference waveform recorded offline (here: synthesized from an ideal,
// heterogeneity-free tag), using the widely-linear regression
//
//   D(X, Y) = min_{a,b,c in C} || Y - (a X + b X* + c) ||^2
//
// where a models rotation+scaling (a roll of dtheta appears as the complex
// factor e^{-j 2 dtheta} on X), b absorbs I/Q imbalance and c the DC
// offset. Detection is two-stage: a rotation-invariant sliding correlation
// finds the coarse start, then the regression is solved in a small
// neighbourhood for sample-exact timing; the winning coefficients are
// applied to the rest of the packet before demodulation.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/least_squares.h"
#include "phy/constellation.h"
#include "phy/frame.h"
#include "phy/params.h"
#include "signal/correlate.h"
#include "signal/snr_estimator.h"
#include "signal/waveform.h"

namespace rt::phy {

struct PreambleDetection {
  bool found = false;
  std::size_t start_sample = 0;     ///< sample index of preamble slot 0
  Complex a{1.0, 0.0};              ///< rotation + scaling
  Complex b{0.0, 0.0};              ///< I/Q imbalance (conjugate term)
  Complex c{0.0, 0.0};              ///< DC offset
  double normalized_residual = 1.0; ///< ||Y - fit|| / ||Y||
  double correlation_peak = 0.0;    ///< centred normalized correlation at t0
  sig::SnrEstimate snr;             ///< receiver-side SNR over the fitted preamble
};

/// Reusable scratch for PreambleProcessor::detect(). Every buffer is fully
/// overwritten per call, so one workspace can serve any number of packets.
struct PreambleWorkspace {
  std::vector<double> corr;            ///< sliding correlation output
  sig::SlidingScratch corr_scratch;    ///< prefix sums for the correlation
  linalg::ComplexMatrix design;        ///< k x 3 widely-linear design
  linalg::ComplexMatrix reduced;       ///< k x 2 single-channel fallback
  std::vector<Complex> y;              ///< regression target (the reference)
  std::vector<Complex> fitted;         ///< corrected preamble window for SNR estimation
  linalg::LsWorkspace<Complex> ls;     ///< QR solve scratch
};

class PreambleProcessor {
 public:
  /// Builds the offline reference by synthesizing the standard preamble
  /// pattern on an ideal tag (no heterogeneity, no rotation, no noise) and
  /// subtracting the idle baseline.
  explicit PreambleProcessor(const PhyParams& params);

  /// Searches `rx` for the preamble. `search_limit` bounds the candidate
  /// start sample (0 = search the whole waveform). Zero steady-state
  /// allocations once `ws` has warmed up.
  [[nodiscard]] PreambleDetection detect(const sig::IqWaveform& rx, std::size_t search_limit,
                                         PreambleWorkspace& ws) const;

  /// Applies the regression coefficients in place,
  /// rx[i] = a rx[i] + b conj(rx[i]) + c, mapping the received packet into
  /// the rotation-free reference frame.
  void correct_in_place(sig::IqWaveform& rx, const PreambleDetection& det) const;

  /// Normalized-correlation acceptance threshold (the low-SNR path).
  [[nodiscard]] static constexpr double correlation_threshold() { return kCorrThreshold; }

  [[nodiscard]] const std::vector<Complex>& reference() const { return reference_; }

  /// Pre-centred reference + cached energy, for callers running their own
  /// correlation scans against the same reference (the streaming
  /// receiver's continuous search).
  [[nodiscard]] const sig::CenteredRef& centered_reference() const { return centered_ref_; }

 private:
  /// Solves the (a, b, c) regression of the reference onto rx at `offset`;
  /// returns the normalized residual.
  [[nodiscard]] double regress(const sig::IqWaveform& rx, std::size_t offset, Complex& a,
                               Complex& b, Complex& c, PreambleWorkspace& ws) const;

  PhyParams p_;
  std::vector<Complex> reference_;
  sig::CenteredRef centered_ref_;  ///< zero-mean reference + energy, cached
  double ref_energy_ = 0.0;        ///< sum |reference_|^2 (uncentred)

  /// detect() reports found when the best normalized residual falls below
  /// kResidThreshold or the correlation peak exceeds kCorrThreshold.
  static constexpr double kResidThreshold = 0.35;
  static constexpr double kCorrThreshold = 0.30;
};

}  // namespace rt::phy
