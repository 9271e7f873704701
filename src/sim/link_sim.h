// End-to-end link simulator: packets through the full RetroTurbo stack.
//
// Owns the modulator, channel and demodulator (with offline training
// performed once at construction, as the paper's one-time offline step),
// and provides the BER harness every experiment bench builds on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/demodulator.h"
#include "phy/modulator.h"
#include "sim/channel.h"
#include "sim/packet_workspace.h"

namespace rt::sim {

struct SimOptions {
  int offline_rank = 3;                 ///< S: truncated KL basis count
  std::vector<double> offline_yaws_deg = {0.0, 20.0};  ///< offline-training orientations
  bool oracle_templates = false;        ///< perfect channel knowledge, no online training
  int max_pad_slots = 2;                ///< random packet start padding
  std::uint64_t seed = 42;
  /// Reuse an already-trained offline model (the one-time offline step does
  /// not depend on distance/SNR, so sweeps share it across points).
  std::optional<phy::OfflineModel> shared_offline_model;
  /// Pose at which oracle templates are collected (default: the operating
  /// pose). Setting this to the nominal pose while operating elsewhere
  /// models a receiver with stale, non-adaptive references -- the
  /// "channel training disabled" ablation of Fig. 16c.
  std::optional<Pose> oracle_pose;
  /// Export per-bit LLRs from the demapper into PacketOutcome::soft_bits
  /// (workspace overloads only). Off by default: the raw hot path and its
  /// perf baselines are unchanged unless a coded experiment asks for LLRs.
  bool export_soft_bits = false;
};

struct LinkStats {
  int packets = 0;
  int preamble_failures = 0;
  std::size_t bit_errors = 0;
  std::size_t total_bits = 0;

  /// BER counting lost packets as all-bits-lost (conservative, as a failed
  /// preamble loses the whole packet).
  [[nodiscard]] double ber() const {
    return total_bits == 0 ? 0.0
                           : static_cast<double>(bit_errors) / static_cast<double>(total_bits);
  }
  [[nodiscard]] double packet_loss() const {
    return packets == 0 ? 0.0 : static_cast<double>(preamble_failures) / packets;
  }

  /// Accumulates another batch. All fields are plain sums, so merging is
  /// associative and commutative: any partition of a packet set merges to
  /// the same stats, which lets the parallel sweep engine aggregate
  /// batches in any order.
  LinkStats& merge(const LinkStats& other) {
    packets += other.packets;
    preamble_failures += other.preamble_failures;
    bit_errors += other.bit_errors;
    total_bits += other.total_bits;
    return *this;
  }

  friend bool operator==(const LinkStats&, const LinkStats&) = default;
};

/// Performs the one-time offline training for a (PHY, tag) pair so sweeps
/// can share the model via SimOptions::shared_offline_model.
[[nodiscard]] phy::OfflineModel train_offline_model(const phy::PhyParams& params,
                                                    const lcm::TagConfig& tag_config,
                                                    const std::vector<double>& yaws_deg = {0.0},
                                                    int rank = 3);

class LinkSimulator {
 public:
  LinkSimulator(const phy::PhyParams& params, const lcm::TagConfig& tag_config,
                const ChannelConfig& channel_config, const SimOptions& options = {});

  /// What one packet's trip through TX -> channel -> RX produced.
  struct PacketOutcome {
    bool preamble_found = false;
    std::size_t bit_errors = 0;
    std::size_t bits = 0;
    /// Receiver-side uplink SNR estimate from the fitted preamble (dB),
    /// always finite; meaningful only when `preamble_found`. This is the
    /// quantity the closed rate-adaptation loop feeds to mac::RateTable.
    double snr_estimate_db = 0.0;
    std::vector<std::uint8_t> received_bits;  ///< demodulated payload (empty if lost)
    /// Per-bit LLRs aligned with the payload (positive = bit 0). Only
    /// filled by the workspace overloads when SimOptions::export_soft_bits
    /// is set and the preamble was found; views ws.result.soft_bits, so it
    /// is invalidated by the next packet on the same workspace.
    std::span<const float> soft_bits;
  };
  /// Runs packet number `packet_index` of the paper's BER methodology
  /// (random payload, random start padding, fresh channel noise) as a pure
  /// function of (options.seed, channel noise_seed, packet_index): the
  /// payload, padding and noise streams are derived with rt::split_seed,
  /// never from shared engine state. Thread-safe for concurrent calls on
  /// one simulator, and the outcome is independent of call order -- the
  /// property the parallel sweep engine (rt::runtime) is built on.
  [[nodiscard]] PacketOutcome run_packet(std::uint64_t packet_index,
                                         std::size_t payload_bytes) const;

  /// Workspace form of run_packet(): the entire TX -> channel -> RX
  /// pipeline runs through `ws`'s preallocated buffers, so the steady
  /// state (after one warm-up packet) performs no heap allocations. The
  /// outcome is bit-identical to run_packet() regardless of the
  /// workspace's prior contents, EXCEPT that `received_bits` is left empty
  /// to stay allocation-free -- the demodulated payload remains readable
  /// in `ws.result.bits`. Workspaces must not be shared across threads.
  [[nodiscard]] PacketOutcome run_packet(std::uint64_t packet_index, std::size_t payload_bytes,
                                         PacketWorkspace& ws) const;

  /// run_packet() with a caller-supplied bit stream instead of the derived
  /// random payload -- the entry point for coded frames (sim::CodedLink),
  /// whose on-air bits come from the FEC encoder. Padding and noise use
  /// exactly run_packet's split_seed derivations, so a coded and an
  /// uncoded packet at the same index see the same channel realization.
  [[nodiscard]] PacketOutcome run_packet_bits(std::uint64_t packet_index,
                                              std::span<const std::uint8_t> payload_bits,
                                              PacketWorkspace& ws) const;

  /// TX -> channel half of run_packet(): renders packet `packet_index`'s
  /// received waveform into `ws.rx` WITHOUT demodulating it, using exactly
  /// the same seed derivations (payload, padding, noise) as run_packet --
  /// so a streaming receiver decoding the concatenation of these
  /// waveforms sees bit-identical samples to the packet-at-a-time path.
  /// The payload ground truth remains in `ws.payload`.
  struct RenderedPacket {
    std::size_t pad_samples = 0;   ///< random start padding before the preamble
    std::size_t payload_bits = 0;  ///< ground-truth bit count (ws.payload)
    int payload_slots = 0;         ///< frame geometry for the receiver
  };
  [[nodiscard]] RenderedPacket render_packet_rx(std::uint64_t packet_index,
                                                std::size_t payload_bytes,
                                                PacketWorkspace& ws) const;

  /// Paper methodology: `packets` packets of `payload_bytes` random bytes.
  /// Equivalent to merging run_packet(0..packets-1) in order, so a serial
  /// run is bit-identical to any parallel partition of the same indices.
  /// Internally reuses one PacketWorkspace across all packets.
  [[nodiscard]] LinkStats run(int packets, std::size_t payload_bytes = 128) const;

  [[nodiscard]] const Channel& channel() const { return channel_; }
  [[nodiscard]] const phy::PhyParams& params() const { return params_; }
  [[nodiscard]] double snr_db() const { return channel_.snr_db(); }
  /// The trained packet pipeline; the streaming receiver shares it so the
  /// two decode paths are bit-identical.
  [[nodiscard]] const phy::Demodulator& demodulator() const { return demodulator_; }
  [[nodiscard]] const SimOptions& options() const { return opts_; }

 private:
  /// Runs one packet through the workspace pipeline: modulate into
  /// ws.schedule, pad the schedule in place, render through the channel
  /// into ws.rx, demodulate in place. Does not fill
  /// `received_bits` (see run_packet workspace overload).
  [[nodiscard]] PacketOutcome transmit_into(std::span<const std::uint8_t> payload_bits,
                                            Rng& pad_rng, Rng& noise_rng,
                                            PacketWorkspace& ws) const;

  /// TX half of transmit_into(): modulate, pad, render through the channel
  /// into ws.rx. Returns the padding in samples.
  std::size_t render_into(std::span<const std::uint8_t> payload_bits, Rng& pad_rng,
                          Rng& noise_rng, PacketWorkspace& ws) const;

  phy::PhyParams params_;
  Channel channel_;
  phy::Modulator modulator_;
  phy::Demodulator demodulator_;
  std::optional<phy::PulseBank> oracle_;
  SimOptions opts_;
};

}  // namespace rt::sim
