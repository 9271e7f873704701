// The end-to-end optical channel: tag LCM array -> retroreflective path ->
// reader baseband.
//
// Combines the link budget (SNR from distance + yaw projection loss), the
// PQAM constellation rotation from roll, ambient-light shot noise, and
// optional human-mobility gain ripple into a WaveformSource the PHY layer
// consumes. Noise is calibrated against the modulated signal power of the
// configuration's own preamble section, so "SNR = x dB" means the same
// thing across schemes. A Channel is immutable once built: every noise draw
// comes from a caller-owned Rng, so one channel serves concurrent packets.
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

/// Returns a process-unique channel identity (monotonic counter).
[[nodiscard]] std::uint64_t next_channel_id();

/// Copyable identity token: every copy (construction or assignment) draws a
/// fresh id, so a workspace that cached a realization of channel X never
/// mistakes a copied/reassigned channel for X.
struct ChannelId {
  ChannelId() : value(next_channel_id()) {}
  ChannelId(const ChannelId&) : value(next_channel_id()) {}
  ChannelId& operator=(const ChannelId&) {
    value = next_channel_id();
    return *this;
  }
  std::uint64_t value;
};

/// One reusable realization of a channel: the posed tag array plus the
/// constant per-sample gain chain, bound into a stage object. Calling
/// synthesize_into() resets the tag and renders a packet into a
/// caller-owned waveform -- the allocation-free replacement for the
/// std::function returned by Channel::source_with(). Build one via
/// Channel::make_realization() and reuse it for every packet of that
/// channel (it is bit-identical to a fresh source_with() call).
class ChannelRealization {
 public:
  /// Renders `firings` over [0, duration_s) into `out` and adds AWGN drawn
  /// from `noise_rng` (skipped when null or when the channel is noiseless).
  void synthesize_into(std::span<const lcm::Firing> firings, double duration_s, Rng* noise_rng,
                       lcm::SynthScratch& scratch, sig::IqWaveform& out);

  /// Identity of the Channel this realization was built from.
  [[nodiscard]] std::uint64_t channel_id() const { return channel_id_; }

 private:
  friend class Channel;
  ChannelRealization(const lcm::TagConfig& posed_cfg, sig::Complex rot, double sample_rate_hz,
                     MobilityScenario mobility, ChannelDynamics dynamics, double sigma,
                     std::uint64_t channel_id)
      : tag_(posed_cfg),
        rot_(rot),
        sample_rate_hz_(sample_rate_hz),
        mobility_(mobility),
        dynamics_(dynamics),
        sigma_(sigma),
        channel_id_(channel_id) {}

  lcm::TagArray tag_;
  sig::Complex rot_;
  double sample_rate_hz_;
  MobilityScenario mobility_;
  ChannelDynamics dynamics_;
  double sigma_;
  std::uint64_t channel_id_;
  std::vector<sig::Complex> gain_buf_;  ///< per-sample gain scratch (capacity reused)
};

class Channel {
 public:
  /// `tag_config` carries the tag hardware truth (heterogeneity seed, and
  /// the yaw-induced response distortion is applied here from the pose).
  Channel(const phy::PhyParams& params, lcm::TagConfig tag_config, const ChannelConfig& config);

  /// Noisy source at the configured SNR drawing from a caller-owned noise
  /// stream (fresh tag state per call; the stream advances across calls,
  /// so successive packets see independent noise). `noise_rng` is captured
  /// by reference and must outlive the returned source. With per-packet
  /// counter-based streams (rt::split_seed) concurrent packets never share
  /// RNG state, which is what makes parallel sweeps bit-identical to
  /// serial ones.
  [[nodiscard]] phy::WaveformSource source_with(Rng& noise_rng) const;

  /// Builds the reusable stage object equivalent of source_with(): one
  /// posed tag array plus the gain chain, rendered through caller buffers.
  [[nodiscard]] ChannelRealization make_realization() const;

  /// Identity for realization caching: stable for this object's lifetime,
  /// distinct across channel instances (including copies).
  [[nodiscard]] std::uint64_t id() const { return id_.value; }

  /// Noise-free source at the same pose (offline training / oracle use).
  [[nodiscard]] phy::WaveformSource noiseless_source() const;

  /// Noise-free source at a different pose of the same tag (offline
  /// training collects fingerprints across orientations).
  [[nodiscard]] phy::WaveformSource noiseless_source_at(const Pose& pose) const;

  /// Per-axis AWGN sigma realizing the configured SNR.
  [[nodiscard]] double noise_sigma_per_axis() const { return sigma_; }
  [[nodiscard]] double snr_db() const { return cfg_.snr_db(); }
  [[nodiscard]] const ChannelConfig& config() const { return cfg_; }

  /// Mean modulated-signal power of this PHY configuration at unit gain
  /// (the SNR reference level).
  [[nodiscard]] double reference_signal_power() const { return ref_power_; }

 private:
  [[nodiscard]] lcm::TagConfig posed_tag_config(const Pose& pose) const;

  phy::PhyParams params_;
  lcm::TagConfig tag_cfg_;
  ChannelConfig cfg_;
  double ref_power_ = 0.0;
  double sigma_ = 0.0;
  ChannelId id_;
};

}  // namespace rt::sim
