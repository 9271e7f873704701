// The end-to-end optical channel: tag LCM array -> retroreflective path ->
// reader baseband.
//
// Combines the link budget (SNR from distance + yaw projection loss), the
// PQAM constellation rotation from roll, ambient-light shot noise, and
// optional human-mobility gain ripple into one const render stage. Noise is
// calibrated against the modulated signal power of the configuration's own
// preamble section, so "SNR = x dB" means the same thing across schemes. A
// Channel is immutable once built: it poses its tag once, every render
// starts from the idle tag in caller scratch, and every noise draw comes
// from a caller-owned Rng, so one channel serves concurrent packets.
#pragma once

#include <cmath>
#include <optional>

#include "common/rng.h"
#include "lcm/tag_array.h"
#include "optics/ambient.h"
#include "optics/link_budget.h"
#include "phy/params.h"
#include "phy/pulse_model.h"
#include "sim/geometry.h"
#include "sim/mobility.h"

namespace rt::sim {

/// Continuous relative motion during a packet (section 8 mobility
/// discussion): the pose drifts linearly over the packet duration.
struct ChannelDynamics {
  double roll_rate_deg_s = 0.0;   ///< tag spinning about the optical axis
  double gain_drift_per_s = 0.0;  ///< relative amplitude drift (approach/recede)

  [[nodiscard]] bool any() const { return roll_rate_deg_s != 0.0 || gain_drift_per_s != 0.0; }
};

struct ChannelConfig {
  optics::LinkBudget budget = optics::LinkBudget::narrow_beam();
  Pose pose{};
  optics::AmbientLight ambient = optics::AmbientLight::night();
  MobilityScenario mobility = MobilityScenario::none();
  ChannelDynamics dynamics{};
  /// When set, bypasses the link budget and uses this SNR directly
  /// (trace-driven emulation mode, section 7.3).
  std::optional<double> snr_override_db;
  std::uint64_t noise_seed = 1;

  /// Effective SNR including yaw projection loss. Defined out of line:
  /// inlined into a caller that builds the config on its stack, the
  /// optional's read draws a spurious -Wmaybe-uninitialized from GCC 12.
  [[nodiscard]] double snr_db() const;
};

class Channel {
 public:
  /// `tag_config` carries the tag hardware truth (heterogeneity seed, and
  /// the yaw-induced response distortion is applied here from the pose).
  Channel(const phy::PhyParams& params, lcm::TagConfig tag_config, const ChannelConfig& config);

  /// Renders `firings` over [0, duration_s) at the configured pose into
  /// `out` (capacity reused) and adds AWGN drawn from `noise_rng` (skipped
  /// when null or when the channel is noiseless). Every call starts from
  /// the idle tag and keeps its state in `scratch` and `out`; with
  /// per-packet counter-based noise streams (rt::split_seed) concurrent
  /// packets share nothing mutable, which is what makes parallel sweeps
  /// bit-identical to serial ones.
  void synthesize_into(std::span<const lcm::Firing> firings, double duration_s, Rng* noise_rng,
                       lcm::SynthScratch& scratch, sig::IqWaveform& out) const;

  /// Noise-free source at a pose of the same tag, without mobility or
  /// dynamics (offline training collects fingerprints across orientations;
  /// oracle templates use the operating pose). Only the pose's yaw and
  /// roll reach the waveform. The source owns its posed tag, so it may
  /// outlive this channel.
  [[nodiscard]] phy::WaveformSource noiseless_source_at(const Pose& pose) const;

  /// Per-axis AWGN sigma realizing the configured SNR.
  [[nodiscard]] double noise_sigma_per_axis() const { return sigma_; }
  [[nodiscard]] double snr_db() const { return cfg_.snr_db(); }
  [[nodiscard]] const ChannelConfig& config() const { return cfg_; }

  /// Mean modulated-signal power of this PHY configuration at unit gain
  /// (the SNR reference level).
  [[nodiscard]] double reference_signal_power() const { return ref_power_; }

 private:
  phy::PhyParams params_;
  ChannelConfig cfg_;
  lcm::TagArray tag_;  ///< the tag at the configured pose
  double ref_power_ = 0.0;
  double sigma_ = 0.0;
};

}  // namespace rt::sim
