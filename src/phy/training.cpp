#include "phy/training.h"

#include <cmath>

#include "common/error.h"
#include "kernels/kernels.h"
#include "linalg/least_squares.h"
#include "linalg/svd.h"
#include "obs/trace.h"

namespace rt::phy {

namespace {

/// Nominal complex axis of a module: I group on the real axis, Q group on
/// the imaginary axis (p_I = j p_Q, section 4.2.3).
Complex module_axis(int module_global, int dsm_order) {
  return module_global < dsm_order ? Complex(1.0, 0.0) : Complex(0.0, 1.0);
}

}  // namespace

OfflineModel OfflineTrainer::train(const PhyParams& params,
                                   std::span<const WaveformSource> sources, int rank) {
  RT_ENSURE(!sources.empty(), "offline training needs at least one orientation source");
  std::vector<PulseBank> banks;
  banks.reserve(sources.size());
  for (const auto& src : sources) banks.push_back(collect_fingerprints(params, src));
  return train_from_banks(params, banks, rank);
}

OfflineModel OfflineTrainer::train_from_banks(const PhyParams& params,
                                              std::span<const PulseBank> banks, int rank) {
  RT_ENSURE(!banks.empty(), "need at least one fingerprint bank");
  RT_ENSURE(rank >= 1, "rank must be >= 1");
  const int l = params.dsm_order;
  const int modules = params.use_q_channel ? 2 * l : l;
  const int entries = params.fingerprint_entries();
  const std::size_t pulse_len = params.samples_per_symbol();
  const std::size_t domain = static_cast<std::size_t>(entries) * pulse_len;

  const std::size_t n_cols = banks.size() * static_cast<std::size_t>(modules);
  linalg::RealMatrix e(domain, n_cols);
  std::size_t col = 0;
  for (const auto& bank : banks) {
    RT_ENSURE(bank.modules() == modules && bank.entries() == entries &&
                  bank.pulse_len() == pulse_len,
              "fingerprint bank does not match the PHY parameters");
    for (int m = 0; m < modules; ++m) {
      const Complex axis = module_axis(m, l);
      for (int h = 0; h < entries; ++h) {
        const auto pulse = bank.pulse(m, narrow_cast<unsigned>(h));
        for (std::size_t k = 0; k < pulse_len; ++k) {
          // Project onto the module's nominal axis; the tiny orthogonal
          // residue from polarizer attachment errors is noise to the basis.
          e(static_cast<std::size_t>(h) * pulse_len + k, col) =
              (pulse[k] * std::conj(axis)).real();
        }
      }
      ++col;
    }
  }

  const auto s = linalg::svd(e);
  const auto k = std::min<std::size_t>(static_cast<std::size_t>(rank), s.sigma.size());
  OfflineModel model;
  model.bases = linalg::truncated_basis(s, k);
  model.sigma.assign(s.sigma.begin(), s.sigma.begin() + static_cast<std::ptrdiff_t>(k));
  return model;
}

namespace {

/// Recomputes the cached training / pixel schedules when the geometry
/// changed since the last packet (never in a steady-state sweep).
void refresh_schedules(const PhyParams& params, const FrameLayout& layout,
                       TrainingWorkspace& ws) {
  if (ws.schedule_valid && ws.schedule_params == params && ws.schedule_layout == layout) return;
  ws.schedule = training_schedule(params, layout);
  ws.pixel_schedule = pixel_training_schedule(params, layout);
  ws.schedule_params = params;
  ws.schedule_layout = layout;
  ws.schedule_valid = true;
}

}  // namespace

void OnlineTrainer::train_into(const PhyParams& params, const OfflineModel& model,
                               const FrameLayout& layout, const sig::IqWaveform& corrected_rx,
                               std::size_t frame_start, PulseBank& bank, TrainingWorkspace& ws,
                               double ridge) {
  RT_TRACE_SPAN("train");
  RT_OBS_COUNT(kTrainingSolves, 1);
  RT_ENSURE(ridge >= 0.0, "ridge weight cannot be negative");
  const int l = params.dsm_order;
  const int modules = params.use_q_channel ? 2 * l : l;
  const int s_rank = model.rank();
  const std::size_t pulse_len = params.samples_per_symbol();
  RT_ENSURE(model.domain() == static_cast<std::size_t>(params.fingerprint_entries()) * pulse_len,
            "offline model domain does not match the PHY parameters");

  const std::size_t t_samps = params.samples_per_slot();
  const int region_slots = layout.training_slots() + layout.guard_slots;
  const std::size_t n = static_cast<std::size_t>(region_slots) * t_samps;
  const std::size_t region_start =
      frame_start + static_cast<std::size_t>(layout.training_begin()) * t_samps;
  RT_ENSURE(region_start + n <= corrected_rx.size(),
            "received waveform too short for the training field");

  const std::size_t unknowns = static_cast<std::size_t>(modules) * static_cast<std::size_t>(s_rank);
  // Ridge regularization: stack sqrt(lambda) I under the design matrix so
  // the QR solve minimizes ||A g - b||^2 + lambda ||g||^2.
  //
  // The design is built column-major (column u at a_cm[u*rows ..]) with a
  // per-call transpose of the offline bases, so every accumulation below
  // runs over contiguous spans through the kernel layer. The additions per
  // element are unchanged in value and order, and qr_decompose_cm_into
  // feeds MGS the same column-major copy qr_decompose_into would build --
  // the solve is bit-identical to the old row-major path.
  const std::size_t rows = n + unknowns;
  ws.a_cm.assign(rows * unknowns, 0.0);
  const std::size_t domain = model.domain();
  ws.bases_cm.resize(static_cast<std::size_t>(s_rank) * domain);
  for (int s = 0; s < s_rank; ++s) {
    double* dst = ws.bases_cm.data() + static_cast<std::size_t>(s) * domain;
    for (std::size_t idx = 0; idx < domain; ++idx)
      dst[idx] = model.bases(idx, static_cast<std::size_t>(s));
  }
  ws.b_re.assign(n + unknowns, 0.0);
  ws.b_im.assign(n + unknowns, 0.0);
  auto& b_re = ws.b_re;
  auto& b_im = ws.b_im;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = corrected_rx[region_start + i];
    b_re[i] = v.real();
    b_im[i] = v.imag();
  }

  refresh_schedules(params, layout, ws);
  for (const auto& tf : ws.schedule) {
    const std::size_t off =
        static_cast<std::size_t>(tf.slot - layout.training_begin()) * t_samps;
    if (off >= n) continue;
    const std::size_t len = std::min(pulse_len, n - off);
    for (int s = 0; s < s_rank; ++s) {
      const std::size_t u = static_cast<std::size_t>(tf.module_global) * s_rank + s;
      const std::size_t key_base = static_cast<std::size_t>(tf.key()) * pulse_len;
      kernels::accum_real(len, ws.bases_cm.data() + static_cast<std::size_t>(s) * domain + key_base,
                          ws.a_cm.data() + u * rows + off);
    }
  }

  // Singular-value-weighted ridge: each coefficient's penalty scales with
  // its design-column norm (scale invariance) and with sigma_1/sigma_s --
  // the dominant basis is essentially unpenalized, weak bases are damped
  // toward zero unless the packet strongly supports them.
  if (ridge > 0.0) {
    const double sigma1 = model.sigma.empty() ? 1.0 : model.sigma.front();
    for (std::size_t u = 0; u < unknowns; ++u) {
      const double col_sq = kernels::sum_sq_real(n, ws.a_cm.data() + u * rows);
      const int s = narrow_cast<int>(u % static_cast<std::size_t>(s_rank));
      const double sig =
          (s < narrow_cast<int>(model.sigma.size()) && model.sigma[s] > 0.0) ? model.sigma[s]
                                                                             : sigma1;
      const double weight = sigma1 / sig;
      ws.a_cm[u * rows + n + u] = std::sqrt(ridge * col_sq) * weight;
    }
  }

  // A is real; solve the complex fit as two real least-squares problems
  // off one QR decomposition.
  RT_OBS_COUNT(kLsSolves, 2);
  linalg::qr_decompose_cm_into(std::span<const double>(ws.a_cm), rows, unknowns, ws.ls);
  const auto re_sol = linalg::solve_after_qr(std::span<const double>(b_re), ws.ls);
  ws.g_re.assign(re_sol.begin(), re_sol.end());
  const auto im_sol = linalg::solve_after_qr(std::span<const double>(b_im), ws.ls);
  ws.g_im.assign(im_sol.begin(), im_sol.end());
  const auto& g_re = ws.g_re;
  const auto& g_im = ws.g_im;
  RT_DCHECK_FINITE(g_re);
  RT_DCHECK_FINITE(g_im);

  // resize() zero-fills every template, so key 0 (the identically-zero
  // template) needs no write and the others accumulate from zero exactly
  // as the fresh-vector path did.
  bank.resize(modules, params.fingerprint_entries(), pulse_len);
  for (int m = 0; m < modules; ++m) {
    for (int key = 1; key < params.fingerprint_entries(); ++key) {
      const auto pulse = bank.pulse_mut(m, narrow_cast<unsigned>(key));
      for (int s = 0; s < s_rank; ++s) {
        const std::size_t u = static_cast<std::size_t>(m) * s_rank + s;
        const Complex gamma(g_re[u], g_im[u]);
        const std::size_t key_base = static_cast<std::size_t>(key) * pulse_len;
        kernels::caxpy_real(pulse_len, gamma,
                            ws.bases_cm.data() + static_cast<std::size_t>(s) * domain + key_base,
                            pulse.data());
      }
    }
  }

  if (layout.pixel_rounds > 0)
    calibrate_pixel_gains_into(params, layout, corrected_rx, frame_start, bank, ws);
}

void OnlineTrainer::calibrate_pixel_gains_into(const PhyParams& params,
                                               const FrameLayout& layout,
                                               const sig::IqWaveform& corrected_rx,
                                               std::size_t frame_start, PulseBank& bank,
                                               TrainingWorkspace& ws) {
  RT_TRACE_SPAN("pixel_cal");
  RT_OBS_COUNT(kPixelCalSolves, 1);
  RT_OBS_COUNT(kLsSolves, 1);
  // Second LS stage over the pixel-calibration rounds: each weight pixel's
  // waveform is g_{m,w} * area_w * T_m[key], with complex gains g as the
  // unknowns. The single-pixel firing structure of the rounds makes the
  // per-pixel columns linearly independent.
  const int l = params.dsm_order;
  const int modules = params.use_q_channel ? 2 * l : l;
  const int bits = params.bits_per_axis;
  const std::size_t pulse_len = params.samples_per_symbol();
  const std::size_t t_samps = params.samples_per_slot();
  const double area_denom = static_cast<double>((1 << bits) - 1);

  const int region_slots = layout.pixel_slots() + layout.guard_slots;
  const std::size_t n = static_cast<std::size_t>(region_slots) * t_samps;
  const std::size_t region_start =
      frame_start + static_cast<std::size_t>(layout.pixel_begin()) * t_samps;
  RT_ENSURE(region_start + n <= corrected_rx.size(),
            "received waveform too short for the pixel-calibration rounds");

  // Gains are REAL amplitude factors (manufacturing area/transmission
  // spread); solving a real system on stacked re/im rows also avoids the
  // rank deficiency of a complex solve, where an I module's template and
  // its Q sibling's (j times the same shape, fired in the same rounds)
  // are complex-proportional.
  const std::size_t unknowns =
      static_cast<std::size_t>(modules) * static_cast<std::size_t>(bits);
  auto& a = ws.pixel_a;
  a.resize(2 * n, unknowns);
  auto& b = ws.pixel_b;
  b.assign(2 * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = corrected_rx[region_start + i].real();
    b[n + i] = corrected_rx[region_start + i].imag();
  }

  refresh_schedules(params, layout, ws);
  for (const auto& pc : ws.pixel_schedule) {
    const std::size_t off =
        static_cast<std::size_t>(pc.slot - layout.pixel_begin()) * t_samps;
    const std::size_t u =
        static_cast<std::size_t>(pc.module_global) * static_cast<std::size_t>(bits) +
        static_cast<std::size_t>(pc.weight_index);
    const double area = static_cast<double>(1 << (bits - 1 - pc.weight_index)) / area_denom;
    const auto tmpl = bank.pulse(pc.module_global, pc.key);
    for (std::size_t k = 0; k < pulse_len; ++k) {
      const std::size_t row = off + k;
      if (row >= n) break;
      a(row, u) += area * tmpl[k].real();
      a(n + row, u) += area * tmpl[k].imag();
    }
  }

  try {
    const auto gains = linalg::solve_least_squares_into(a, std::span<const double>(b), ws.ls);
    RT_DCHECK_FINITE(gains);
    ws.pixel_gains.resize(gains.size());
    for (std::size_t i = 0; i < gains.size(); ++i) ws.pixel_gains[i] = Complex(gains[i], 0.0);
    bank.set_pixel_gains(std::span<const Complex>(ws.pixel_gains), bits);
  } catch (const PreconditionError&) {
    // Degenerate calibration (e.g. a pixel never excited): keep unity
    // gains rather than fail the packet.
  }
}

}  // namespace rt::phy
