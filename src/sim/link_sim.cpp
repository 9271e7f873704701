#include "sim/link_sim.h"

#include <cmath>

#include "common/bitio.h"
#include "common/narrow.h"
#include "obs/trace.h"
#include "phy/training.h"

namespace rt::sim {

namespace {

/// Offline training over `yaws_deg`: one noiseless, rotation-free source
/// of `channel`'s tag per yaw (a source reads only the pose's yaw and roll).
phy::OfflineModel train_over_yaws(const phy::PhyParams& params, const Channel& channel,
                                  const std::vector<double>& yaws_deg, int rank) {
  std::vector<phy::WaveformSource> sources;
  for (const double yaw_deg : yaws_deg) {
    Pose pose;
    pose.yaw_rad = rt::deg_to_rad(yaw_deg);
    sources.push_back(channel.noiseless_source_at(pose));
  }
  return phy::OfflineTrainer::train(params, sources, rank);
}

}  // namespace

phy::OfflineModel train_offline_model(const phy::PhyParams& params,
                                      const lcm::TagConfig& tag_config,
                                      const std::vector<double>& yaws_deg, int rank) {
  RT_ENSURE(!yaws_deg.empty(), "offline training needs at least one yaw orientation");
  ChannelConfig probe;
  probe.snr_override_db = 60.0;  // unused by the noiseless sources
  return train_over_yaws(params, Channel(params, tag_config, probe), yaws_deg, rank);
}

LinkSimulator::LinkSimulator(const phy::PhyParams& params, const lcm::TagConfig& tag_config,
                             const ChannelConfig& channel_config, const SimOptions& options)
    : params_(params),
      channel_(params, tag_config, channel_config),
      modulator_(params),
      demodulator_(params, options.shared_offline_model
                               ? *options.shared_offline_model
                               : train_over_yaws(params, channel_, options.offline_yaws_deg,
                                                 options.offline_rank)),
      opts_(options) {
  if (opts_.oracle_templates) {
    // Fingerprints measured noiselessly at the oracle pose (default: the
    // operating pose = perfect channel knowledge) but WITHOUT roll (the
    // preamble correction restores the reference frame, so templates live
    // in the rotation-free frame).
    Pose pose = opts_.oracle_pose.value_or(channel_config.pose);
    pose.roll_rad = 0.0;
    oracle_ = phy::collect_fingerprints(params_, channel_.noiseless_source_at(pose));
  }
}

LinkSimulator::PacketOutcome LinkSimulator::transmit_into(
    std::span<const std::uint8_t> payload_bits, Rng& pad_rng, Rng& noise_rng,
    PacketWorkspace& ws) const {
  RT_ENSURE(!payload_bits.empty(), "packets need a non-empty payload");
  // All stage spans/metrics of this packet land in the workspace recorder.
  const obs::ScopedBind obs_bind(ws.obs);
  RT_TRACE_SPAN("packet");
  render_into(payload_bits, pad_rng, noise_rng, ws);
  const auto& pkt = ws.schedule;

  phy::DemodOptions dopts;
  dopts.oracle = opts_.oracle_templates ? &*oracle_ : nullptr;
  dopts.search_limit = static_cast<std::size_t>(opts_.max_pad_slots + 2) *
                       params_.samples_per_slot();
  dopts.soft_output = opts_.export_soft_bits;
  demodulator_.demodulate_into(ws.rx, pkt.layout.payload_slots, dopts, ws.demod, ws.result);
  const auto& res = ws.result;

  PacketOutcome out;
  out.bits = payload_bits.size();
  out.preamble_found = res.preamble_found;
  if (!res.preamble_found) {
    out.bit_errors = payload_bits.size();  // whole packet lost
  } else {
    RT_ENSURE(res.bits.size() >= payload_bits.size(),
              "demodulator returned fewer bits than the transmitted payload");
    out.bit_errors =
        hamming_distance(std::span(res.bits).first(payload_bits.size()), payload_bits);
    if (opts_.export_soft_bits)
      out.soft_bits = std::span<const float>(res.soft_bits.data(), payload_bits.size());
    out.snr_estimate_db = res.detection.snr.snr_db;
    RT_OBS_OBSERVE(kSnrEstimateErrorDb, std::abs(out.snr_estimate_db - channel_.snr_db()));
  }
  RT_OBS_COUNT(kPacketsSimulated, 1);
  RT_OBS_COUNT(kPayloadBits, out.bits);
  RT_OBS_COUNT(kBitErrors, out.bit_errors);
  return out;
}

std::size_t LinkSimulator::render_into(std::span<const std::uint8_t> payload_bits, Rng& pad_rng,
                                       Rng& noise_rng, PacketWorkspace& ws) const {
  modulator_.modulate_into(payload_bits, ws.tx, ws.schedule);
  auto& pkt = ws.schedule;

  // Random pre-padding: the reader does not know when the packet starts.
  // The shift happens in place; the next modulate_into() copies the
  // modulator's unshifted prefix again, so the offset never accumulates.
  const int pad_slots =
      opts_.max_pad_slots > 0 ? narrow_cast<int>(pad_rng.uniform_int(0, opts_.max_pad_slots)) : 0;
  const double pad_s = pad_slots * params_.slot_s;
  for (auto& f : pkt.firings) f.time_s += pad_s;
  const double duration = pad_s + pkt.duration_s + params_.symbol_duration_s();

  channel_.synthesize_into(pkt.firings, duration, &noise_rng, ws.synth, ws.rx);
  return static_cast<std::size_t>(pad_slots) * params_.samples_per_slot();
}

namespace {

// Sub-stream tags for run_packet's split_seed derivations. Payload and
// padding split off the simulation seed, noise splits off the channel's
// noise seed, preserving the seed structure the benches already use
// (same payloads across points, independent noise per point).
constexpr std::uint64_t kPayloadStream = 0;
constexpr std::uint64_t kPadStream = 1;
constexpr std::uint64_t kNoiseStream = 2;

}  // namespace

LinkSimulator::PacketOutcome LinkSimulator::run_packet(std::uint64_t packet_index,
                                                       std::size_t payload_bytes) const {
  PacketWorkspace ws;
  auto out = run_packet(packet_index, payload_bytes, ws);
  if (out.preamble_found)
    out.received_bits.assign(ws.result.bits.begin(),
                             ws.result.bits.begin() + static_cast<std::ptrdiff_t>(out.bits));
  return out;
}

LinkSimulator::PacketOutcome LinkSimulator::run_packet(std::uint64_t packet_index,
                                                       std::size_t payload_bytes,
                                                       PacketWorkspace& ws) const {
  RT_ENSURE(payload_bytes >= 1, "need at least one payload byte");
  Rng payload_rng(split_seed(opts_.seed, packet_index, kPayloadStream));
  Rng pad_rng(split_seed(opts_.seed, packet_index, kPadStream));
  Rng noise_rng(split_seed(channel_.config().noise_seed, packet_index, kNoiseStream));
  ws.payload.resize(payload_bytes * 8);
  payload_rng.fill_bits(ws.payload);
  return transmit_into(ws.payload, pad_rng, noise_rng, ws);
}

LinkSimulator::PacketOutcome LinkSimulator::run_packet_bits(
    std::uint64_t packet_index, std::span<const std::uint8_t> payload_bits,
    PacketWorkspace& ws) const {
  // Same pad/noise sub-streams as run_packet; the payload stream is simply
  // unused because the caller supplies the on-air bits.
  Rng pad_rng(split_seed(opts_.seed, packet_index, kPadStream));
  Rng noise_rng(split_seed(channel_.config().noise_seed, packet_index, kNoiseStream));
  return transmit_into(payload_bits, pad_rng, noise_rng, ws);
}

LinkSimulator::RenderedPacket LinkSimulator::render_packet_rx(std::uint64_t packet_index,
                                                              std::size_t payload_bytes,
                                                              PacketWorkspace& ws) const {
  RT_ENSURE(payload_bytes >= 1, "need at least one payload byte");
  const obs::ScopedBind obs_bind(ws.obs);
  // Exactly run_packet's seed derivations, so the rendered waveform is
  // bit-identical to what the packet-at-a-time path demodulates.
  Rng payload_rng(split_seed(opts_.seed, packet_index, kPayloadStream));
  Rng pad_rng(split_seed(opts_.seed, packet_index, kPadStream));
  Rng noise_rng(split_seed(channel_.config().noise_seed, packet_index, kNoiseStream));
  ws.payload.resize(payload_bytes * 8);
  payload_rng.fill_bits(ws.payload);
  RenderedPacket out;
  out.pad_samples = render_into(ws.payload, pad_rng, noise_rng, ws);
  out.payload_bits = ws.payload.size();
  out.payload_slots = ws.schedule.layout.payload_slots;
  return out;
}

LinkStats LinkSimulator::run(int packets, std::size_t payload_bytes) const {
  RT_ENSURE(packets >= 1, "need at least one packet");
  LinkStats stats;
  PacketWorkspace ws;
  for (int p = 0; p < packets; ++p) {
    const auto outcome = run_packet(static_cast<std::uint64_t>(p), payload_bytes, ws);
    ++stats.packets;
    if (!outcome.preamble_found) ++stats.preamble_failures;
    stats.bit_errors += outcome.bit_errors;
    stats.total_bits += outcome.bits;
  }
  return stats;
}

}  // namespace rt::sim
