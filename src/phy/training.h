// Two-stage channel training (paper section 4.3.3).
//
// Offline: pulse fingerprints r(x) -- the full set of history-conditioned
// templates for one module -- are collected at several orientations x,
// stacked into the matrix E = [r(x_1) ... r(x_n)], and the leading S left
// singular vectors are kept as invariant bases (truncated Karhunen-Loeve
// expansion: the best rank-S linear approximation in MSE).
//
// Online (per packet): only the S complex coefficients per module are
// solved, by least squares against the known lower-triangular training
// field -- 2*S*L unknowns from a few thousand received samples, cheap
// enough for real time and tolerant of the per-packet channel state
// (orientation, illumination, LCM heterogeneity).
#pragma once

#include <span>
#include <vector>

#include "common/narrow.h"
#include "linalg/least_squares.h"
#include "linalg/matrix.h"
#include "phy/frame.h"
#include "phy/params.h"
#include "phy/pulse_model.h"
#include "signal/waveform.h"

namespace rt::phy {

/// The offline-trained invariant basis set. Rows span the concatenated
/// fingerprint domain (2^V histories x W-samples); columns are the S bases.
/// `sigma` holds the corresponding singular values: the online solve uses
/// them as a prior (a weak basis should not absorb much energy from one
/// noisy packet).
struct OfflineModel {
  linalg::RealMatrix bases;
  std::vector<double> sigma;

  [[nodiscard]] int rank() const { return narrow_cast<int>(bases.cols()); }
  [[nodiscard]] std::size_t domain() const { return bases.rows(); }
};

class OfflineTrainer {
 public:
  /// Collects fingerprints through each source (one per orientation) and
  /// extracts `rank` bases. Every module contributes a column per
  /// orientation (modules share bases; per-module variation is captured by
  /// the online coefficients).
  [[nodiscard]] static OfflineModel train(const PhyParams& params,
                                          std::span<const WaveformSource> sources, int rank);

  /// Builds an OfflineModel directly from already-collected fingerprint
  /// banks (used by tests and by trace replay).
  [[nodiscard]] static OfflineModel train_from_banks(const PhyParams& params,
                                                     std::span<const PulseBank> banks, int rank);
};

/// Reusable scratch for the per-packet online training solve. The
/// training/pixel schedules are pure functions of (PhyParams, FrameLayout)
/// and are cached until those change; every other buffer is fully
/// overwritten per packet.
struct TrainingWorkspace {
  std::vector<TrainingFiring> schedule;
  std::vector<PixelTrainingCycle> pixel_schedule;
  bool schedule_valid = false;
  PhyParams schedule_params;
  FrameLayout schedule_layout;

  std::vector<double> a_cm;           ///< (n + unknowns) x unknowns design, column-major
  std::vector<double> bases_cm;       ///< rank x domain transpose of OfflineModel::bases
  std::vector<double> b_re;           ///< real part of the rhs
  std::vector<double> b_im;           ///< imaginary part of the rhs
  linalg::LsWorkspace<double> ls;     ///< QR solve scratch
  std::vector<double> g_re;           ///< solved coefficients (real)
  std::vector<double> g_im;           ///< solved coefficients (imag)
  linalg::RealMatrix pixel_a;         ///< pixel-calibration design
  std::vector<double> pixel_b;        ///< pixel-calibration rhs
  std::vector<Complex> pixel_gains;   ///< solved per-pixel gains
};

class OnlineTrainer {
 public:
  /// Fits the per-module complex basis coefficients to the (rotation-
  /// corrected) received training field and writes the reconstructed
  /// pulse bank for the equalizer into `bank` (resized and filled in
  /// place, reusing the workspace buffers). `corrected_rx` must be aligned
  /// so that sample index `frame_start` is frame slot 0.
  ///
  /// `ridge` is the Tikhonov regularization weight (relative to the mean
  /// squared column norm of the design matrix): it keeps the higher-order
  /// bases from amplifying noise when the training field barely excites
  /// them -- the "avoid overfitting to preserve noise tolerance" balance
  /// of section 4.3.3.
  static void train_into(const PhyParams& params, const OfflineModel& model,
                         const FrameLayout& layout, const sig::IqWaveform& corrected_rx,
                         std::size_t frame_start, PulseBank& bank, TrainingWorkspace& ws,
                         double ridge = 1e-4);

  /// Second-stage per-pixel gain estimation from the calibration rounds
  /// (runs automatically from train_into() when the frame carries them).
  static void calibrate_pixel_gains_into(const PhyParams& params, const FrameLayout& layout,
                                         const sig::IqWaveform& corrected_rx,
                                         std::size_t frame_start, PulseBank& bank,
                                         TrainingWorkspace& ws);
};

}  // namespace rt::phy
