// Coded-frame link: FEC-wrapped packets through the LinkSimulator.
//
// Wraps one LinkSimulator with a coding::CodedFrameCodec so every packet
// runs CRC -> whiten -> FEC encode -> interleave -> TX -> channel -> RX ->
// deinterleave -> (soft or hard) decode -> CRC check. It is the one coded
// path: the Fig. 18b bench sweeps its post-decode info BER against the raw
// channel BER (the soft-vs-hard coding gain), and retroturbo::Link sends
// an adopter's bytes through run_packet_bits, retrying on a CRC failure.
// Mirrors LinkSimulator's purity contract: both entry points are pure
// functions of (seed, noise_seed, packet_index, info bits), and
// CodedLinkStats merges associatively/commutatively, so serial runs equal
// any parallel partition bit for bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "coding/coded_frame.h"
#include "common/bitio.h"
#include "obs/trace.h"
#include "sim/link_sim.h"

namespace rt::sim {

struct CodedPacketOutcome {
  bool preamble_found = false;
  bool decode_ok = false;  ///< FEC converged (RS blocks corrected)
  bool crc_ok = false;
  std::size_t info_bits = 0;
  std::size_t info_bit_errors = 0;  ///< post-decode errors (all bits if lost)
  std::size_t raw_bits = 0;         ///< on-air coded bits
  std::size_t raw_bit_errors = 0;   ///< pre-decode channel errors
  std::size_t erasures_used = 0;    ///< RS erasures in successful GMD retries
  double snr_estimate_db = 0.0;
  /// Decoded info bits (empty if the preamble was lost). Views the
  /// workspace, so the next packet on the same workspace invalidates it.
  std::span<const std::uint8_t> payload;
};

/// Plain-sum statistics (merge is associative and commutative, the same
/// discipline as LinkStats).
struct CodedLinkStats {
  int packets = 0;
  int preamble_failures = 0;
  int crc_failures = 0;  ///< frames with a bad CRC (lost frames included)
  std::size_t info_bits = 0;
  std::size_t info_bit_errors = 0;
  std::size_t raw_bits = 0;
  std::size_t raw_bit_errors = 0;
  std::size_t erasures_used = 0;

  /// Post-decode information-bit error rate.
  [[nodiscard]] double ber() const {
    return info_bits == 0 ? 0.0
                          : static_cast<double>(info_bit_errors) / static_cast<double>(info_bits);
  }
  /// Pre-decode channel bit error rate over the coded stream.
  [[nodiscard]] double raw_ber() const {
    return raw_bits == 0 ? 0.0
                         : static_cast<double>(raw_bit_errors) / static_cast<double>(raw_bits);
  }
  /// Fraction of frames not delivered intact (CRC or preamble failure).
  [[nodiscard]] double frame_error_rate() const {
    return packets == 0 ? 0.0 : static_cast<double>(crc_failures) / packets;
  }

  CodedLinkStats& add(const CodedPacketOutcome& o) {
    ++packets;
    if (!o.preamble_found) ++preamble_failures;
    if (!o.crc_ok) ++crc_failures;
    info_bits += o.info_bits;
    info_bit_errors += o.info_bit_errors;
    raw_bits += o.raw_bits;
    raw_bit_errors += o.raw_bit_errors;
    erasures_used += o.erasures_used;
    return *this;
  }

  CodedLinkStats& merge(const CodedLinkStats& other) {
    packets += other.packets;
    preamble_failures += other.preamble_failures;
    crc_failures += other.crc_failures;
    info_bits += other.info_bits;
    info_bit_errors += other.info_bit_errors;
    raw_bits += other.raw_bits;
    raw_bit_errors += other.raw_bit_errors;
    erasures_used += other.erasures_used;
    return *this;
  }

  friend bool operator==(const CodedLinkStats&, const CodedLinkStats&) = default;
};

class CodedLink {
 public:
  enum class DecodeMode { kSoft, kHard };

  /// `link` must outlive the CodedLink. Soft decoding additionally needs
  /// the simulator built with SimOptions::export_soft_bits.
  CodedLink(const LinkSimulator& link, const coding::CodedFrameConfig& cfg)
      : link_(link), codec_(cfg) {}

  [[nodiscard]] const coding::CodedFrameCodec& codec() const { return codec_; }
  [[nodiscard]] const LinkSimulator& link() const { return link_; }

  /// Runs coded frame `packet_index` carrying `payload_bytes` random info
  /// bytes (drawn from the same payload sub-stream as the uncoded
  /// methodology) through run_packet_bits. Workspaces must not be shared
  /// across threads.
  [[nodiscard]] CodedPacketOutcome run_packet(std::uint64_t packet_index,
                                              std::size_t payload_bytes, PacketWorkspace& ws,
                                              DecodeMode mode = DecodeMode::kSoft) const {
    RT_ENSURE(payload_bytes >= 1, "need at least one payload byte");
    // Sub-stream 0 is run_packet's payload stream, so a coded and an
    // uncoded campaign at the same index carry the same info bits.
    Rng info_rng(split_seed(link_.options().seed, packet_index, 0));
    ws.info_bits.resize(payload_bytes * 8);
    info_rng.fill_bits(ws.info_bits);
    return run_packet_bits(packet_index, ws.info_bits, ws, mode);
  }

  /// Codes the caller's `info_bits` (whole bytes; may be ws.info_bits) as
  /// frame `packet_index`, sends it through LinkSimulator::run_packet_bits
  /// and decodes it. A lost preamble counts every info bit as an error,
  /// matching LinkStats' conservative convention.
  [[nodiscard]] CodedPacketOutcome run_packet_bits(std::uint64_t packet_index,
                                                   std::span<const std::uint8_t> info_bits,
                                                   PacketWorkspace& ws,
                                                   DecodeMode mode = DecodeMode::kSoft) const {
    const obs::ScopedBind obs_bind(ws.obs);
    const std::size_t info_n = info_bits.size();
    {
      RT_TRACE_SPAN("code_encode");
      codec_.encode_into(info_bits, ws.coded, ws.coded_tx_bits);
    }
    const auto raw = link_.run_packet_bits(packet_index, ws.coded_tx_bits, ws);

    CodedPacketOutcome out;
    out.preamble_found = raw.preamble_found;
    out.info_bits = info_n;
    out.raw_bits = raw.bits;
    out.raw_bit_errors = raw.bit_errors;
    out.snr_estimate_db = raw.snr_estimate_db;
    RT_OBS_COUNT(kCodedFrames, 1);
    if (!raw.preamble_found) {
      out.info_bit_errors = info_n;  // whole frame lost
      RT_OBS_COUNT(kCodedCrcFailures, 1);
      return out;
    }

    {
      RT_TRACE_SPAN("code_decode");
      coding::CodedFrameResult res;
      if (mode == DecodeMode::kSoft) {
        RT_ENSURE(link_.options().export_soft_bits,
                  "soft decoding needs SimOptions::export_soft_bits");
        double llr_abs_sum = 0.0;
        for (const float l : raw.soft_bits) llr_abs_sum += std::fabs(l);
        RT_OBS_OBSERVE(kSoftLlrMeanAbs,
                       llr_abs_sum / static_cast<double>(raw.soft_bits.size()));
        res = codec_.decode_soft_into(raw.soft_bits, info_n, ws.coded);
        RT_OBS_COUNT(kCodedSoftDecodes, 1);
      } else {
        const std::span<const std::uint8_t> sliced(ws.result.bits.data(),
                                                   ws.coded_tx_bits.size());
        res = codec_.decode_hard_into(sliced, info_n, ws.coded);
        RT_OBS_COUNT(kCodedHardDecodes, 1);
      }
      out.decode_ok = res.decode_ok;
      out.crc_ok = res.crc_ok;
      out.erasures_used = res.erasures_used;
      out.payload = res.payload;
      RT_OBS_COUNT(kRsErasuresMarked, res.erasures_used);
      if (!res.crc_ok) RT_OBS_COUNT(kCodedCrcFailures, 1);
      out.info_bit_errors = hamming_distance(res.payload.first(info_n), info_bits);
    }
    return out;
  }

  /// Serial reference run over packets 0..packets-1; equals merging any
  /// parallel partition of the same indices.
  [[nodiscard]] CodedLinkStats run(int packets, std::size_t payload_bytes,
                                   DecodeMode mode = DecodeMode::kSoft) const {
    RT_ENSURE(packets >= 1, "need at least one packet");
    CodedLinkStats stats;
    PacketWorkspace ws;
    for (int p = 0; p < packets; ++p)
      stats.add(run_packet(static_cast<std::uint64_t>(p), payload_bytes, ws, mode));
    return stats;
  }

 private:
  const LinkSimulator& link_;
  coding::CodedFrameCodec codec_;
};

}  // namespace rt::sim
