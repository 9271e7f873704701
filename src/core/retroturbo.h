// RetroTurbo public API.
//
// One-stop facade over the full stack: pick a rate preset (or custom PHY
// parameters), describe the deployment (distance, orientation, ambient
// light), and move bytes across the simulated visible-light backscatter
// link exactly as the SIGCOMM'20 system would -- DSM-PQAM modulation on a
// liquid-crystal pixel array, preamble rotation correction, two-stage
// channel training and K-branch DFE demodulation at the reader. Each
// send_bytes() call is one CRC-16 coded frame (optionally Reed-Solomon
// protected) through sim::CodedLink, retransmitted until the reader's CRC
// check passes (stop-and-wait, paper sections 4.4 and 7.3).
//
//   retroturbo::LinkConfig cfg;
//   cfg.rate = retroturbo::RatePreset::k8kbps;
//   cfg.distance_m = 5.0;
//   retroturbo::Link link(cfg);
//   auto result = link.send_bytes(payload);
//
// Lower layers remain fully accessible (rt::phy, rt::lcm, rt::sim, ...)
// for research use; this header is the adopter entry point.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bitio.h"
#include "common/units.h"
#include "fleet/campaign.h"
#include "fleet/collision.h"
#include "mac/rate_table.h"
#include "sim/coded_link.h"
#include "sim/link_sim.h"
#include "stream/sim_source.h"
#include "stream/source.h"
#include "stream/streaming_receiver.h"

namespace retroturbo {

/// Library version.
[[nodiscard]] inline std::string version() { return "1.0.0"; }

/// The paper's operating points (Tab. 3 / Fig. 18a).
enum class RatePreset { k1kbps, k4kbps, k8kbps, k16kbps, k32kbps };

[[nodiscard]] inline rt::phy::PhyParams phy_params_for(RatePreset preset) {
  switch (preset) {
    case RatePreset::k1kbps:
      return rt::phy::PhyParams::rate_1kbps();
    case RatePreset::k4kbps:
      return rt::phy::PhyParams::rate_4kbps();
    case RatePreset::k8kbps:
      return rt::phy::PhyParams::rate_8kbps();
    case RatePreset::k16kbps:
      return rt::phy::PhyParams::rate_16kbps();
    case RatePreset::k32kbps:
      return rt::phy::PhyParams::rate_32kbps();
  }
  throw rt::PreconditionError("unknown rate preset");
}

/// Tag hardware realism every Link simulates (paper Fig. 11b): 3% pixel
/// gain spread, 2% time-constant spread, 1 deg polarizer attachment error.
inline constexpr rt::lcm::Heterogeneity kTagHeterogeneity{0.03, 0.02, rt::deg_to_rad(1.0)};

struct LinkConfig {
  RatePreset rate = RatePreset::k8kbps;
  /// Full PHY control when the presets are not enough (overrides `rate`).
  std::optional<rt::phy::PhyParams> custom_phy;

  // Deployment geometry and environment.
  double distance_m = 2.0;
  double roll_deg = 0.0;
  double yaw_deg = 0.0;
  double ambient_lux = 200.0;
  /// Direct SNR control for emulation studies (bypasses the link budget).
  std::optional<double> snr_override_db;

  /// Optional Reed-Solomon outer code (n, k); {0, 0} = uncoded.
  std::size_t rs_n = 0;
  std::size_t rs_k = 0;
  /// Retransmissions after a failed first attempt: a send makes at most
  /// 1 + max_retransmissions attempts.
  int max_retransmissions = 4;

  std::uint64_t seed = 1;
};

struct TransferResult {
  bool delivered = false;
  int attempts = 0;
  std::vector<std::uint8_t> received;  ///< payload as decoded at the reader
};

/// A point-to-point RetroTurbo uplink (tag -> reader) with CRC framing,
/// optional RS coding and stop-and-wait retransmission.
class Link {
 public:
  explicit Link(const LinkConfig& config)
      : cfg_(config),
        sim_(make_phy(config), make_tag(config), make_channel(config), make_sim_options(config)),
        coded_(sim_, make_frame_config(config)) {
    RT_ENSURE(config.max_retransmissions >= 0, "max_retransmissions must be non-negative");
  }
  Link(const Link&) = delete;  // coded_ refers to this link's own sim_

  /// Sends `payload` as one coded frame; retransmits, each attempt a fresh
  /// packet of the simulation, until the CRC passes.
  [[nodiscard]] TransferResult send_bytes(std::span<const std::uint8_t> payload) {
    RT_ENSURE(!payload.empty(), "send_bytes needs at least one payload byte");
    ws_.info_bits.resize(payload.size() * 8);
    rt::unpack_bits(payload, ws_.info_bits);
    TransferResult out;
    while (!out.delivered && out.attempts <= cfg_.max_retransmissions) {
      ++out.attempts;
      const auto r = coded_.run_packet_bits(next_packet_++, ws_.info_bits, ws_);
      if (!r.crc_ok) continue;
      out.delivered = true;
      out.received.resize(payload.size());
      rt::pack_bits(r.payload, out.received);
    }
    return out;
  }

  /// Raw-PHY BER measurement (the paper's 30-packet methodology).
  [[nodiscard]] rt::sim::LinkStats measure_ber(int packets = 30,
                                               std::size_t payload_bytes = 128) {
    return sim_.run(packets, payload_bytes);
  }

  [[nodiscard]] double snr_db() const { return sim_.snr_db(); }
  [[nodiscard]] double data_rate_bps() const { return sim_.params().data_rate_bps(); }
  [[nodiscard]] const rt::phy::PhyParams& phy() const { return sim_.params(); }
  [[nodiscard]] rt::sim::LinkSimulator& simulator() { return sim_; }

 private:
  [[nodiscard]] static rt::phy::PhyParams make_phy(const LinkConfig& c) {
    return c.custom_phy ? *c.custom_phy : phy_params_for(c.rate);
  }

  [[nodiscard]] static rt::lcm::TagConfig make_tag(const LinkConfig& c) {
    auto tag = make_phy(c).tag_config();
    tag.heterogeneity = kTagHeterogeneity;
    tag.seed = c.seed;
    return tag;
  }

  [[nodiscard]] static rt::sim::ChannelConfig make_channel(const LinkConfig& c) {
    rt::sim::ChannelConfig ch;
    ch.pose.distance_m = c.distance_m;
    ch.pose.roll_rad = rt::deg_to_rad(c.roll_deg);
    ch.pose.yaw_rad = rt::deg_to_rad(c.yaw_deg);
    ch.ambient.illuminance_lux = c.ambient_lux;
    ch.snr_override_db = c.snr_override_db;
    ch.noise_seed = c.seed + 0x9E3779B9ULL;
    return ch;
  }

  [[nodiscard]] static rt::sim::SimOptions make_sim_options(const LinkConfig& c) {
    rt::sim::SimOptions o;
    o.seed = c.seed + 0x85EBCA6BULL;
    o.export_soft_bits = true;  // CodedLink's soft (GMD) decoding reads the LLRs
    return o;
  }

  [[nodiscard]] static rt::coding::CodedFrameConfig make_frame_config(const LinkConfig& c) {
    rt::coding::CodedFrameConfig f;
    if (c.rs_n > 0) f.code = rt::coding::CodeDescriptor::reed_solomon(c.rs_n, c.rs_k);
    return f;
  }

  LinkConfig cfg_;
  rt::sim::LinkSimulator sim_;
  rt::sim::CodedLink coded_;
  rt::sim::PacketWorkspace ws_;
  std::uint64_t next_packet_ = 0;  ///< every attempt runs a fresh packet index
};

}  // namespace retroturbo
