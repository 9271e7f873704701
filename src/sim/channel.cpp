#include "sim/channel.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "optics/polarization.h"
#include "phy/frame.h"
#include "signal/awgn.h"

namespace rt::sim {

double ChannelConfig::snr_db() const {
  if (snr_override_db) return *snr_override_db;
  return budget.snr_db_at(pose.distance_m) - optics::LinkBudget::yaw_loss_db(pose.yaw_rad);
}

namespace {

/// The tag hardware `tag` seen at `pose`: yaw distorts the LC response
/// (roll acts downstream, in the gain chain).
lcm::TagConfig posed(lcm::TagConfig tag, const Pose& pose) {
  tag.yaw_rad = pose.yaw_rad;
  return tag;
}

/// Mean power of (preamble waveform - idle baseline) at unit gain: the
/// modulated signal power defining SNR for a PHY configuration.
double reference_power(const phy::PhyParams& params, const lcm::TagConfig& tag_cfg) {
  const double duration = (params.preamble_slots + params.dsm_order) * params.slot_s;
  const auto response = lcm::modulated_response(tag_cfg, phy::preamble_firings(params, 0),
                                                params.sample_rate_hz, duration);
  double p = 0.0;
  for (const auto& v : response) p += std::norm(v);
  return p / static_cast<double>(response.size());
}

/// The one render path: `tag` synthesizes `firings` at `fs`, every sample
/// takes `motion`'s gain chain (pose roll, mobility ripple, dynamics), then
/// AWGN of per-axis `sigma` from `noise_rng` when both are set.
void render(const lcm::TagArray& tag, double fs, const ChannelConfig& motion, double sigma,
            Rng* noise_rng, std::span<const lcm::Firing> firings, double duration_s,
            lcm::SynthScratch& scratch, sig::IqWaveform& out) {
  RT_TRACE_SPAN("channel");
  tag.synthesize_into(firings, fs, duration_s, scratch, out);
  // Gain chain split into a (scalar, transcendental-heavy) gain fill and a
  // batched complex scale, one stack block at a time; `out[i] *= g` and
  // cscale apply the identical complex product per sample.
  const sig::Complex rot = optics::roll_rotation(motion.pose.roll_rad);
  const ChannelDynamics& dyn = motion.dynamics;
  constexpr std::size_t kBlock = 256;
  std::array<sig::Complex, kBlock> gain;
  for (std::size_t i0 = 0; i0 < out.size(); i0 += kBlock) {
    const std::size_t n = std::min(kBlock, out.size() - i0);
    for (std::size_t k = 0; k < n; ++k) {
      const double t = static_cast<double>(i0 + k) / fs;
      sig::Complex g = rot * motion.mobility.gain(t);
      if (dyn.any()) {
        g *= optics::roll_rotation(rt::deg_to_rad(dyn.roll_rate_deg_s) * t);
        g *= std::max(0.05, 1.0 + dyn.gain_drift_per_s * t);
      }
      gain[k] = g;
    }
    kernels::cscale(n, out.samples.data() + i0, gain.data());
  }
  if (sigma > 0.0 && noise_rng != nullptr) sig::add_noise_sigma(out, sigma, *noise_rng);
}

}  // namespace

Channel::Channel(const phy::PhyParams& params, lcm::TagConfig tag_config,
                 const ChannelConfig& config)
    : params_(params), cfg_(config), tag_(posed(tag_config, config.pose)) {
  params_.validate();
  cfg_.pose.validate();
  ref_power_ = reference_power(params_, tag_.config());
  RT_ENSURE(ref_power_ > 0.0, "tag configuration produces no modulated signal power");
  // Total per-axis noise: receiver AWGN realizing the target SNR plus the
  // ambient shot-noise floor (complex noise splits across the two axes).
  const double snr_lin = rt::from_db(cfg_.snr_db());
  const double awgn_var = ref_power_ / snr_lin / 2.0;
  const double shot = cfg_.ambient.shot_noise_sigma();
  sigma_ = std::sqrt(awgn_var + shot * shot);
  RT_DCHECK_FINITE(sigma_);
}

void Channel::synthesize_into(std::span<const lcm::Firing> firings, double duration_s,
                              Rng* noise_rng, lcm::SynthScratch& scratch,
                              sig::IqWaveform& out) const {
  render(tag_, params_.sample_rate_hz, cfg_, sigma_, noise_rng, firings, duration_s, scratch, out);
}

phy::WaveformSource Channel::noiseless_source_at(const Pose& pose) const {
  // A default ChannelConfig has no mobility ripple and frozen dynamics, so
  // the gain chain multiplies every sample by exactly the pose's rotation.
  ChannelConfig still;
  still.pose = pose;
  return [tag = lcm::TagArray(posed(tag_.config(), pose)), fs = params_.sample_rate_hz,
          still = std::move(still)](std::span<const lcm::Firing> firings, double duration) {
    lcm::SynthScratch scratch;
    sig::IqWaveform w;
    render(tag, fs, still, 0.0, nullptr, firings, duration, scratch, w);
    return w;
  };
}

}  // namespace rt::sim
