// Cross-module integration tests: the full packet path through the
// passband analog frontend, low-SNR synchronization, training
// regularization behaviour, and stale-reference ablation plumbing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "frontend/receiver_chain.h"
#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "sim/channel.h"
#include "sim/link_sim.h"
#include "signal/correlate.h"

namespace rt {
namespace {

phy::PhyParams fast_params() {
  phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

TEST(Integration, FullPacketThroughPassbandFrontend) {
  // Tag waveform -> chopped illumination -> photodiodes -> band-pass ->
  // synchronous detection -> decimation -> full demodulation. Validates
  // that the analog frontend is transparent to the PHY (design decision 5
  // in DESIGN.md), not just on test tones but on a real packet.
  const auto p = fast_params();
  const phy::Modulator mod(p);
  Rng rng(3);
  const auto bits = rng.bits(64);
  phy::ModulatorWorkspace mod_ws;
  phy::PacketSchedule pkt;
  mod.modulate_into(bits, mod_ws, pkt);

  // Noiseless tag baseband (unit link gain, with a roll to correct).
  sim::ChannelConfig chc;
  chc.pose.roll_rad = rt::deg_to_rad(35.0);
  sim::Channel channel(p, p.tag_config(), chc);
  const auto src = channel.noiseless_source_at(channel.config().pose);
  const auto baseband = src(pkt.firings, pkt.duration_s + p.symbol_duration_s());

  frontend::ReceiverChainConfig rc;
  rc.passband_fs_hz = 4.0e6;
  rc.baseband_fs_hz = p.sample_rate_hz;
  rc.photodiode.thermal_noise_sigma = 1e-3;
  const frontend::ReceiverChain chain(rc);
  // Total intensity: all pixels at unit gain (2L modules x 1 px) plus some
  // margin so individual diode intensities stay non-negative.
  const double total_intensity = 16.0;
  Rng noise(7);
  const auto pd = chain.illuminate(baseband, total_intensity, 0.2);
  auto recovered = chain.process(pd, noise);

  const phy::Demodulator demod(p, sim::train_offline_model(p, p.tag_config()));
  phy::DemodOptions opts;
  opts.search_limit = 8 * p.samples_per_slot();
  phy::DemodWorkspace demod_ws;
  phy::DemodResult res;
  demod.demodulate_into(recovered, pkt.layout.payload_slots, opts, demod_ws, res);
  ASSERT_TRUE(res.preamble_found) << "residual " << res.detection.normalized_residual;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) errors += res.bits[i] != bits[i];
  EXPECT_EQ(errors, 0u) << "passband frontend must be transparent to the PHY";
}

TEST(Integration, LowSnrSynchronizationViaCorrelationPath) {
  // Below ~5 dB the regression residual is noise-dominated; the
  // correlation path (full preamble processing gain) must still find the
  // packet (paper: 1 Kbps synchronizes at -5 dB).
  const auto p = fast_params();
  const phy::Modulator mod(p);
  Rng rng(5);
  phy::ModulatorWorkspace mod_ws;
  phy::PacketSchedule pkt;
  mod.modulate_into(rng.bits(32), mod_ws, pkt);
  sim::ChannelConfig ch;
  ch.snr_override_db = 0.0;
  sim::Channel channel(p, p.tag_config(), ch);
  Rng noise_rng(ch.noise_seed);
  lcm::SynthScratch scratch;
  sig::IqWaveform rx;
  channel.synthesize_into(pkt.firings, pkt.duration_s + p.symbol_duration_s(), &noise_rng, scratch,
                          rx);

  const phy::PreambleProcessor pre(p);
  phy::PreambleWorkspace ws;
  const auto det = pre.detect(rx, 4 * p.samples_per_slot(), ws);
  EXPECT_TRUE(det.found) << "corr peak " << det.correlation_peak << " residual "
                         << det.normalized_residual;
  EXPECT_GT(det.correlation_peak, pre.correlation_threshold());
  EXPECT_NEAR(static_cast<double>(det.start_sample), 0.0, 2.0);
}

TEST(Integration, CorrelationCenteredIgnoresDcBias) {
  Rng rng(9);
  std::vector<sig::Complex> ref(64);
  for (auto& r : ref) r = sig::Complex(rng.gaussian(), rng.gaussian());
  std::vector<sig::Complex> x(400, sig::Complex(25.0, -13.0));  // huge DC floor
  for (std::size_t i = 0; i < ref.size(); ++i) x[150 + i] += ref[i];
  sig::SlidingScratch scratch;
  std::vector<double> corr;
  sig::sliding_correlation_centered_into(x, sig::make_centered_ref(ref), scratch, corr);
  std::size_t best = 0;
  for (std::size_t i = 1; i < corr.size(); ++i)
    if (corr[i] > corr[best]) best = i;
  EXPECT_EQ(best, 150u);
  EXPECT_GT(corr[best], 0.95);
}

TEST(Integration, OfflineModelCarriesSingularValues) {
  const auto p = fast_params();
  const auto model = sim::train_offline_model(p, p.tag_config(), {0.0, 20.0}, 3);
  ASSERT_EQ(model.sigma.size(), 3u);
  EXPECT_GT(model.sigma[0], model.sigma[1]);
  EXPECT_GT(model.sigma[1], 0.0);
}

TEST(Integration, RidgeTrainingRecoversOracleTemplates) {
  // On an ideal (homogeneous) tag the offline fingerprint ensemble is
  // rank-1, so the un-regularized online solve is ill-conditioned: weak
  // numerical bases absorb large mutually-cancelling coefficients and the
  // per-module templates come out wrong even though the sum fits. The
  // sigma-weighted ridge suppresses exactly those directions -- ridged
  // templates must match the oracle fingerprints; plain ones need not.
  const auto p = fast_params();
  const auto tag = p.tag_config();
  sim::ChannelConfig chc;
  sim::Channel channel(p, tag, chc);
  const phy::Modulator mod(p);
  Rng rng(11);
  phy::ModulatorWorkspace mod_ws;
  phy::PacketSchedule pkt;
  mod.modulate_into(rng.bits(32), mod_ws, pkt);
  auto corrected = channel.noiseless_source_at(channel.config().pose)(
      pkt.firings, pkt.duration_s + p.symbol_duration_s());

  const auto model = sim::train_offline_model(p, tag);
  // The trainer consumes the rotation-corrected, baseline-free signal.
  const phy::PreambleProcessor pre(p);
  phy::PreambleWorkspace preamble_ws;
  const auto det = pre.detect(corrected, 2 * p.samples_per_slot(), preamble_ws);
  ASSERT_TRUE(det.found);
  pre.correct_in_place(corrected, det);
  phy::TrainingWorkspace training_ws;
  phy::PulseBank ridged;
  phy::OnlineTrainer::train_into(p, model, pkt.layout, corrected, det.start_sample, ridged,
                                 training_ws, /*ridge=*/1e-4);
  const auto oracle =
      phy::collect_fingerprints(p, channel.noiseless_source_at(channel.config().pose));
  for (int m = 0; m < ridged.modules(); ++m) {
    const auto a = ridged.pulse(m, 0b001);  // fired, no recent history
    const auto b = oracle.pulse(m, 0b001);
    double err = 0.0;
    double ref = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      err += std::norm(a[k] - b[k]);
      ref += std::norm(b[k]);
    }
    EXPECT_LT(std::sqrt(err / ref), 0.1) << "module " << m;
  }
}

TEST(Integration, OraclePoseModelsStaleReferences) {
  // Fig. 16c ablation plumbing: oracle templates collected at yaw 0 while
  // operating at a large yaw must do WORSE than online training. A dense
  // constellation (16-PQAM) makes the stale-shape deviation visible.
  auto p = fast_params();
  p.bits_per_axis = 2;
  auto tag = p.tag_config();
  tag.yaw_timing_skew = 0.9;  // strong off-axis distortion for this scenario
  sim::ChannelConfig ch;
  ch.pose.distance_m = 3.0;
  ch.pose.yaw_rad = rt::deg_to_rad(55.0);
  ch.snr_override_db = 24.0;

  sim::SimOptions stale;
  stale.offline_yaws_deg = {0.0};
  stale.oracle_templates = true;
  stale.oracle_pose = sim::Pose{3.0, 0.0, 0.0};
  sim::LinkSimulator stale_sim(p, tag, ch, stale);

  sim::SimOptions adaptive;
  adaptive.offline_yaws_deg = {0.0, 45.0};
  sim::LinkSimulator adaptive_sim(p, tag, ch, adaptive);

  const auto s_stale = stale_sim.run(4, 16);
  const auto s_adaptive = adaptive_sim.run(4, 16);
  EXPECT_GE(s_stale.ber(), s_adaptive.ber());
  EXPECT_GT(s_stale.ber(), 0.0) << "stale references should cause symbol deviation errors";
}

TEST(Integration, PixelCalibrationRecoversTrueGains) {
  // 16-PQAM tag with a strong, gain-only pixel spread: the calibration
  // rounds must recover each pixel's gain to a few percent.
  auto p = fast_params();
  p.bits_per_axis = 2;
  p.pixel_calibration = true;
  auto tag = p.tag_config();
  tag.heterogeneity = {0.08, 0.0, 0.0};
  tag.seed = 99;
  sim::ChannelConfig chc;
  sim::Channel channel(p, tag, chc);
  const phy::Modulator mod(p);
  Rng rng(5);
  phy::ModulatorWorkspace mod_ws;
  phy::PacketSchedule pkt;
  mod.modulate_into(rng.bits(32), mod_ws, pkt);
  auto corrected = channel.noiseless_source_at(channel.config().pose)(
      pkt.firings, pkt.duration_s + p.symbol_duration_s());
  const phy::PreambleProcessor pre(p);
  phy::PreambleWorkspace preamble_ws;
  const auto det = pre.detect(corrected, 2 * p.samples_per_slot(), preamble_ws);
  ASSERT_TRUE(det.found);
  pre.correct_in_place(corrected, det);
  const auto model = sim::train_offline_model(p, tag);
  phy::TrainingWorkspace training_ws;
  phy::PulseBank bank;
  phy::OnlineTrainer::train_into(p, model, pkt.layout, corrected, det.start_sample, bank,
                                 training_ws);
  ASSERT_TRUE(bank.has_pixel_gains());

  // Ground truth from the tag itself: per-pixel gain relative to the
  // module mean (the module mean is absorbed by the per-module
  // coefficients, so compare normalized shapes).
  const lcm::TagArray truth(tag);
  const auto weights = truth.pixel_weights();
  const auto bits = static_cast<std::size_t>(p.bits_per_axis);
  const double total_area = static_cast<double>((1 << p.bits_per_axis) - 1);
  for (std::size_t m = 0; m < weights.size() / bits; ++m) {
    const auto px = weights.subspan(m * bits, bits);
    double mean = 0.0;
    for (const double w : px) mean += w;
    // Estimated gains are relative to the trained module template, which
    // already carries the area-weighted mean gain.
    for (std::size_t wb = 0; wb < bits; ++wb) {
      const double area = static_cast<double>(1 << (bits - 1 - wb)) / total_area;
      const double truth_rel = px[wb] / area / mean;
      const double est = bank.pixel_gain(static_cast<int>(m), static_cast<int>(wb)).real();
      EXPECT_NEAR(est, truth_rel, 0.06) << "module " << m << " pixel " << wb;
    }
  }
}

TEST(Integration, PixelCalibrationRemovesDenseConstellationFloor) {
  // The extension's payoff: 16-PQAM with 6% gain spread at ample SNR.
  auto p = fast_params();
  p.bits_per_axis = 2;
  auto tag = p.tag_config();
  tag.heterogeneity = {0.06, 0.0, 0.0};
  tag.seed = 4242;
  sim::ChannelConfig ch;
  ch.snr_override_db = 40.0;
  sim::SimOptions so;
  so.offline_yaws_deg = {0.0};

  sim::LinkSimulator plain(p, tag, ch, so);
  auto p_cal = p;
  p_cal.pixel_calibration = true;
  sim::LinkSimulator calibrated(p_cal, tag, ch, so);
  const auto s_plain = plain.run(4, 24);
  const auto s_cal = calibrated.run(4, 24);
  EXPECT_LT(s_cal.ber(), 0.01);
  EXPECT_LE(s_cal.ber(), s_plain.ber());
}

TEST(Integration, SharedOfflineModelMatchesPerPointTraining) {
  const auto p = fast_params();
  const auto tag = p.tag_config();
  sim::ChannelConfig ch;
  ch.snr_override_db = 35.0;
  const auto model = sim::train_offline_model(p, tag);
  sim::SimOptions shared;
  shared.shared_offline_model = model;
  sim::SimOptions fresh;
  fresh.offline_yaws_deg = {0.0};
  sim::LinkSimulator a(p, tag, ch, shared);
  sim::LinkSimulator b(p, tag, ch, fresh);
  EXPECT_EQ(a.run(2, 16).bit_errors, b.run(2, 16).bit_errors);
}

}  // namespace
}  // namespace rt
