// Concurrent multi-tag transmission: waveform-level collision study.
//
// Section 8 ("Efficient Multiple Access") notes that concurrent tags could
// in principle be decoded jointly, but the baseline MAC avoids collisions
// via TDMA. This helper superimposes the waveforms of several tags (each
// with its own pose/rotation and gain) so experiments can measure what a
// collision actually does to the single-tag demodulator -- the
// quantitative case for the TDMA design.
#pragma once

#include <vector>

#include "optics/polarization.h"
#include "signal/awgn.h"
#include "sim/channel.h"

namespace rt::sim {

struct ConcurrentTag {
  lcm::TagConfig tag;
  Pose pose;
  double relative_gain = 1.0;  ///< amplitude relative to the tag of interest
  std::vector<lcm::Firing> firings;
};

/// Synthesizes the superposition of every tag's retroreflected waveform
/// (linear optical superposition at the photodiodes), then adds AWGN for
/// the given SNR *of the first (wanted) tag's signal*, drawn from a fresh
/// engine seeded `noise_seed`. The result is a pure function of (params,
/// tags, duration_s, snr_db, noise_seed), which lets the fleet collision
/// campaign batch trials across the thread pool -- see collision_slot_seed
/// for the slot convention.
[[nodiscard]] inline sig::IqWaveform superimpose_tags(const phy::PhyParams& params,
                                                      const std::vector<ConcurrentTag>& tags,
                                                      double duration_s, double snr_db,
                                                      std::uint64_t noise_seed) {
  RT_ENSURE(!tags.empty(), "need at least one tag");
  sig::IqWaveform sum(params.sample_rate_hz,
                      static_cast<std::size_t>(std::ceil(duration_s * params.sample_rate_hz)));
  double wanted_power = 0.0;
  lcm::SynthScratch scratch;
  sig::IqWaveform w;
  sig::IqWaveform idle;
  for (std::size_t ti = 0; ti < tags.size(); ++ti) {
    const auto& ct = tags[ti];
    lcm::TagConfig cfg = ct.tag;
    cfg.yaw_rad = ct.pose.yaw_rad;
    const lcm::TagArray tag(cfg);
    tag.synthesize_into(ct.firings, params.sample_rate_hz, duration_s, scratch, w);
    const auto rot = optics::roll_rotation(ct.pose.roll_rad) * ct.relative_gain;
    for (std::size_t i = 0; i < sum.size() && i < w.size(); ++i) sum[i] += rot * w[i];
    if (ti != 0) continue;
    // The wanted tag's modulated power (its idle baseline removed) sets
    // the noise level.
    tag.synthesize_into({}, params.sample_rate_hz, duration_s, scratch, idle);
    double p = 0.0;
    for (std::size_t i = 0; i < sum.size() && i < w.size(); ++i)
      p += std::norm(rot * (w[i] - idle[i]));
    wanted_power = p / static_cast<double>(sum.size());
  }
  if (wanted_power > 0.0) {
    const double sigma = std::sqrt(wanted_power / rt::from_db(snr_db) / 2.0);
    Rng rng(noise_seed);
    sig::add_noise_sigma(sum, sigma, rng);
  }
  return sum;
}

/// Seed-slot layout for deterministic collision studies.
///
/// Stream `stream` of trial `trial` of a study seeded `base`. The
/// convention mirrors the sweep engine's (packet, stream) discipline
/// (src/runtime): slots are disjoint across trials and streams, so a
/// parallel collision campaign can reconstruct any trial's randomness
/// from indices alone. Streams 0..tags-1 are reserved for per-tag
/// payload bits; stream == tags is the AWGN draw.
[[nodiscard]] constexpr std::uint64_t collision_slot_seed(std::uint64_t base, std::uint64_t trial,
                                                          std::uint64_t stream) {
  return split_seed(base, trial, stream);
}

}  // namespace rt::sim
