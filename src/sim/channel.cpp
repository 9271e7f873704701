#include "sim/channel.h"

#include <atomic>
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

std::uint64_t next_channel_id() {
  // rt-check: sync-ok (process-wide id counter; channels are built from any thread)
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ChannelRealization::synthesize_into(std::span<const lcm::Firing> firings, double duration_s,
                                         Rng* noise_rng, lcm::SynthScratch& scratch,
                                         sig::IqWaveform& out) {
  RT_TRACE_SPAN("channel");
  // reset() restores the as-constructed LC state, so a reused realization
  // renders exactly what a freshly built tag would.
  tag_.reset();
  tag_.synthesize_into(firings, sample_rate_hz_, duration_s, scratch, out);
  // Gain chain split into a (scalar, transcendental-heavy) gain fill and a
  // batched complex scale; `out[i] *= g` and cscale apply the identical
  // complex product per sample.
  gain_buf_.resize(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = static_cast<double>(i) / sample_rate_hz_;
    sig::Complex g = rot_ * mobility_.gain(t);
    if (dynamics_.any()) {
      g *= optics::roll_rotation(rt::deg_to_rad(dynamics_.roll_rate_deg_s) * t);
      g *= std::max(0.05, 1.0 + dynamics_.gain_drift_per_s * t);
    }
    gain_buf_[i] = g;
  }
  kernels::cscale(out.size(), out.samples.data(), gain_buf_.data());
  if (sigma_ > 0.0 && noise_rng != nullptr) sig::add_noise_sigma(out, sigma_, *noise_rng);
}

namespace {

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

}  // namespace

Channel::Channel(const phy::PhyParams& params, lcm::TagConfig tag_config,
                 const ChannelConfig& config)
    : params_(params), tag_cfg_(tag_config), cfg_(config) {
  params_.validate();
  cfg_.pose.validate();
  ref_power_ = reference_power(params_, posed_tag_config(cfg_.pose));
  RT_ENSURE(ref_power_ > 0.0, "tag configuration produces no modulated signal power");
  // Total per-axis noise: receiver AWGN realizing the target SNR plus the
  // ambient shot-noise floor (complex noise splits across the two axes).
  const double snr_lin = rt::from_db(cfg_.snr_db());
  const double awgn_var = ref_power_ / snr_lin / 2.0;
  const double shot = cfg_.ambient.shot_noise_sigma();
  sigma_ = std::sqrt(awgn_var + shot * shot);
  RT_DCHECK_FINITE(sigma_);
}

lcm::TagConfig Channel::posed_tag_config(const Pose& pose) const {
  lcm::TagConfig cfg = tag_cfg_;
  cfg.yaw_rad = pose.yaw_rad;
  return cfg;
}

phy::WaveformSource Channel::noiseless_source_at(const Pose& pose) const {
  // A realization with unit mobility, frozen dynamics and zero noise
  // multiplies every sample by exactly `rot` -- the original noiseless
  // source arithmetic.
  ChannelRealization real(posed_tag_config(pose), optics::roll_rotation(pose.roll_rad),
                          params_.sample_rate_hz, MobilityScenario::none(), ChannelDynamics{},
                          0.0, id_.value);
  return [real = std::move(real)](std::span<const lcm::Firing> firings,
                                  double duration) mutable {
    lcm::SynthScratch scratch;
    sig::IqWaveform w;
    real.synthesize_into(firings, duration, nullptr, scratch, w);
    return w;
  };
}

phy::WaveformSource Channel::noiseless_source() const {
  return noiseless_source_at(cfg_.pose);
}

phy::WaveformSource Channel::source_with(Rng& noise_rng) const {
  return [&noise_rng, real = make_realization()](std::span<const lcm::Firing> firings,
                                                 double duration) mutable {
    lcm::SynthScratch scratch;
    sig::IqWaveform w;
    real.synthesize_into(firings, duration, &noise_rng, scratch, w);
    return w;
  };
}

ChannelRealization Channel::make_realization() const {
  return {posed_tag_config(cfg_.pose), optics::roll_rotation(cfg_.pose.roll_rad),
          params_.sample_rate_hz, cfg_.mobility, cfg_.dynamics, sigma_, id_.value};
}

}  // namespace rt::sim
