// Coded-frame pipeline: whiten -> FEC encode -> interleave on TX, with the
// inverse (deinterleave -> soft decode -> dewhiten -> CRC check) on RX.
//
// This is the paper's Fig. 18b coding stack generalized over a
// CodeDescriptor: Reed-Solomon absorbs DFE burst errors (with LLR-driven
// erasure marking doubling the correction value of flagged symbols), the
// convolutional option trades better random-error performance at low SNR
// via soft-decision Viterbi. Whitening decorrelates the payload from the
// modulator's own scrambler so coded frames see the same DC-balance
// benefit without the two LFSRs cancelling.
//
// Every *_into entry point runs over a caller-owned CodedFrameWorkspace:
// zero steady-state allocations once the buffers are warm (rt_check C2).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coding/code_descriptor.h"
#include "coding/convolutional.h"
#include "coding/crc.h"
#include "coding/interleaver.h"
#include "coding/reed_solomon.h"
#include "common/bitio.h"
#include "common/error.h"
#include "common/narrow.h"
#include "signal/scrambler.h"

namespace rt::coding {

struct CodedFrameConfig {
  CodeDescriptor code = CodeDescriptor::none();
};

/// All scratch for CodedFrameCodec, pooled in sim::PacketWorkspace so the
/// coded packet path stays allocation-free in steady state.
struct CodedFrameWorkspace {
  std::vector<std::uint8_t> message_bits;  ///< payload + CRC, whitened domain
  std::vector<std::uint8_t> scratch_bits;  ///< conv-coded / deinterleaved bits
  std::vector<float> hard_llrs;            ///< +/-1 view of a hard-bit frame
  std::vector<float> scratch_llrs;         ///< deinterleaved LLRs
  std::vector<std::uint8_t> bytes;         ///< packed message bytes
  std::vector<std::uint8_t> coded_bytes;   ///< RS codewords before interleave
  std::vector<std::uint8_t> il_bytes;      ///< byte-interleaver output
  std::vector<float> byte_rel;             ///< per-byte min-|LLR| reliability
  std::vector<float> rel_scratch;          ///< deinterleaved reliabilities
  std::vector<std::uint32_t> order;        ///< GMD reliability argsort
  std::vector<std::size_t> erasures;       ///< positions handed to the RS decoder
  std::vector<std::uint8_t> block_data;    ///< zero-padded k-byte RS block
  ConvWorkspace conv;
  ReedSolomon::Scratch rs;
};

/// One decode outcome. `payload` views the workspace and is invalidated by
/// the next call on the same workspace.
struct CodedFrameResult {
  bool decode_ok = false;  ///< FEC converged (always true for conv/none)
  bool crc_ok = false;     ///< CRC residue clean
  std::size_t erasures_used = 0;  ///< total RS erasures in successful retries
  std::span<const std::uint8_t> payload;
};

class CodedFrameCodec {
 public:
  /// Block-interleaver depth: a burst of up to kInterleaverRows coded
  /// symbols lands at most once per deinterleaved row.
  static constexpr std::size_t kInterleaverRows = 4;
  /// Whitening seed; anything but the modulator scrambler's default 0x7F,
  /// so the frame and symbol keystreams never line up and cancel.
  static constexpr std::uint8_t kWhitenSeed = 0x2B;

  explicit CodedFrameCodec(CodedFrameConfig cfg) : cfg_(cfg), whitener_(kWhitenSeed) {
    switch (cfg_.code.kind) {
      case CodeDescriptor::Kind::kConvolutional:
        conv_.emplace(narrow_cast<int>(cfg_.code.k));
        break;
      case CodeDescriptor::Kind::kReedSolomon:
        rs_.emplace(cfg_.code.n, cfg_.code.k);
        break;
      case CodeDescriptor::Kind::kNone:
        break;
    }
  }

  /// Message bits carried inside the code: payload plus the
  /// CRC-16/CCITT-FALSE (big-endian) appended before coding.
  [[nodiscard]] static std::size_t message_bits(std::size_t payload_bits) {
    RT_ENSURE(payload_bits > 0 && payload_bits % 8 == 0, "payload must be whole bytes");
    return payload_bits + 16;
  }

  /// On-air coded bits for a payload, including FEC expansion, the trellis
  /// flush / RS block padding, and interleaver fill.
  [[nodiscard]] std::size_t coded_bits(std::size_t payload_bits) const {
    const std::size_t msg = message_bits(payload_bits);
    const std::size_t rows = kInterleaverRows;
    switch (cfg_.code.kind) {
      case CodeDescriptor::Kind::kNone:
        return msg;
      case CodeDescriptor::Kind::kConvolutional: {
        const std::size_t raw = conv_->coded_bits(msg);
        return round_up(raw, rows);
      }
      case CodeDescriptor::Kind::kReedSolomon: {
        const std::size_t msg_bytes = msg / 8;
        const std::size_t blocks = (msg_bytes + rs_->k() - 1) / rs_->k();
        return round_up(blocks * rs_->n(), rows) * 8;
      }
    }
    return msg;
  }

  /// payload bits -> CRC -> whiten -> FEC -> interleave. `out` is resized
  /// to coded_bits(payload_bits.size()); warm buffers never reallocate.
  void encode_into(std::span<const std::uint8_t> payload_bits, CodedFrameWorkspace& ws,
                   std::vector<std::uint8_t>& out) const {
    const std::size_t payload_n = payload_bits.size();
    const std::size_t msg_n = message_bits(payload_n);
    ws.message_bits.resize(msg_n);
    std::copy(payload_bits.begin(), payload_bits.end(), ws.message_bits.begin());
    ws.bytes.resize(payload_n / 8);
    pack_bits({ws.message_bits.data(), payload_n}, ws.bytes);
    const std::uint16_t crc = crc16_ccitt(ws.bytes);
    for (std::size_t j = 0; j < 16; ++j)
      ws.message_bits[payload_n + j] = narrow_cast<std::uint8_t>((crc >> (15 - j)) & 1U);
    whitener_.apply_in_place(ws.message_bits);

    const std::size_t rows = kInterleaverRows;
    switch (cfg_.code.kind) {
      case CodeDescriptor::Kind::kNone:
        out.resize(msg_n);
        std::copy(ws.message_bits.begin(), ws.message_bits.end(), out.begin());
        break;
      case CodeDescriptor::Kind::kConvolutional: {
        conv_->encode_into(ws.message_bits, ws.scratch_bits);
        const std::size_t padded = round_up(ws.scratch_bits.size(), rows);
        ws.scratch_bits.resize(padded, 0);
        const BlockInterleaver il(rows, padded / rows);
        il.interleave_into(std::span<const std::uint8_t>(ws.scratch_bits), out);
        break;
      }
      case CodeDescriptor::Kind::kReedSolomon: {
        const std::size_t msg_bytes = msg_n / 8;
        ws.bytes.resize(msg_bytes);
        pack_bits(ws.message_bits, ws.bytes);
        const std::size_t n = rs_->n();
        const std::size_t k = rs_->k();
        const std::size_t blocks = (msg_bytes + k - 1) / k;
        ws.coded_bytes.resize(blocks * n);
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::size_t start = b * k;
          const std::size_t len = std::min(k, msg_bytes - start);
          ws.block_data.assign(k, 0);
          std::copy_n(ws.bytes.begin() + narrow_cast<std::ptrdiff_t>(start), len,
                      ws.block_data.begin());
          rs_->encode_block_into(ws.block_data, ws.rs, {ws.coded_bytes.data() + b * n, n});
        }
        const std::size_t padded = round_up(blocks * n, rows);
        ws.coded_bytes.resize(padded, 0);
        const BlockInterleaver il(rows, padded / rows);
        il.interleave_into(std::span<const std::uint8_t>(ws.coded_bytes), ws.il_bytes);
        out.resize(padded * 8);
        unpack_bits(ws.il_bytes, out);
        break;
      }
    }
  }

  /// Soft decode from per-bit LLRs (positive = bit 0, the demapper's
  /// convention): deinterleave -> soft Viterbi / RS with GMD erasure
  /// retries -> dewhiten -> CRC. `llrs` must be exactly
  /// coded_bits(payload_bits) long.
  [[nodiscard]] CodedFrameResult decode_soft_into(std::span<const float> llrs,
                                                  std::size_t payload_bits,
                                                  CodedFrameWorkspace& ws) const {
    return decode_frame(llrs, payload_bits, ws, /*gmd=*/true);
  }

  /// Hard decode of sliced coded bits through the same pipeline (bits map
  /// to +/-1 LLRs; RS runs plain errors-only decoding, no erasure retries).
  [[nodiscard]] CodedFrameResult decode_hard_into(std::span<const std::uint8_t> coded,
                                                  std::size_t payload_bits,
                                                  CodedFrameWorkspace& ws) const {
    ws.hard_llrs.resize(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i)
      ws.hard_llrs[i] = (coded[i] & 1U) ? -1.0F : 1.0F;
    return decode_frame(ws.hard_llrs, payload_bits, ws, /*gmd=*/false);
  }

 private:
  [[nodiscard]] static std::size_t round_up(std::size_t v, std::size_t m) {
    return ((v + m - 1) / m) * m;
  }

  [[nodiscard]] CodedFrameResult decode_frame(std::span<const float> llrs,
                                              std::size_t payload_bits, CodedFrameWorkspace& ws,
                                              bool gmd) const {
    const std::size_t msg_n = message_bits(payload_bits);
    RT_ENSURE(llrs.size() == coded_bits(payload_bits), "LLR count does not match the frame");
    CodedFrameResult result;
    result.decode_ok = true;

    const std::size_t rows = kInterleaverRows;
    switch (cfg_.code.kind) {
      case CodeDescriptor::Kind::kNone:
        ws.message_bits.resize(msg_n);
        for (std::size_t i = 0; i < msg_n; ++i)
          ws.message_bits[i] = std::signbit(llrs[i]) ? 1U : 0U;
        break;
      case CodeDescriptor::Kind::kConvolutional: {
        const BlockInterleaver il(rows, llrs.size() / rows);
        il.deinterleave_into(llrs, ws.scratch_llrs);
        const std::size_t raw = conv_->coded_bits(msg_n);
        conv_->decode_soft_into({ws.scratch_llrs.data(), raw}, ws.conv, ws.message_bits);
        break;
      }
      case CodeDescriptor::Kind::kReedSolomon: {
        // Slice hard bytes and a per-byte reliability (the weakest of its
        // eight LLR magnitudes), then deinterleave both side by side so
        // erasure positions line up with codeword positions.
        const std::size_t padded = llrs.size() / 8;
        ws.coded_bytes.resize(padded);
        ws.byte_rel.resize(padded);
        for (std::size_t i = 0; i < padded; ++i) {
          std::uint8_t v = 0;
          float rel = std::fabs(llrs[i * 8]);
          for (std::size_t j = 0; j < 8; ++j) {
            const float l = llrs[i * 8 + j];
            v = narrow_cast<std::uint8_t>((v << 1) | (std::signbit(l) ? 1U : 0U));
            rel = std::min(rel, std::fabs(l));
          }
          ws.coded_bytes[i] = v;
          ws.byte_rel[i] = rel;
        }
        const BlockInterleaver il(rows, padded / rows);
        il.deinterleave_into(std::span<const std::uint8_t>(ws.coded_bytes), ws.il_bytes);
        il.deinterleave_into(std::span<const float>(ws.byte_rel), ws.rel_scratch);

        const std::size_t n = rs_->n();
        const std::size_t k = rs_->k();
        const std::size_t parity = n - k;
        const std::size_t msg_bytes = msg_n / 8;
        const std::size_t blocks = (msg_bytes + k - 1) / k;
        ws.bytes.resize(blocks * k);
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::span<const std::uint8_t> cw(ws.il_bytes.data() + b * n, n);
          const std::span<std::uint8_t> data(ws.bytes.data() + b * k, k);
          if (rs_->decode_block_into(cw, {}, ws.rs, data)) continue;
          // GMD-style retries: erase the weakest 2, 4, ... bytes (each
          // trusted erasure costs half an error) until a decode verifies.
          // Escalation stops at parity - 2: with f = parity erasures the
          // unerased symbols pin a unique codeword, so any unerased error
          // would silently "decode" to valid-but-wrong data. Keeping one
          // error of margin lets the syndrome recheck reject those.
          bool ok = false;
          if (gmd) {
            const float* rel = ws.rel_scratch.data() + b * n;
            ws.order.resize(n);
            for (std::size_t i = 0; i < n; ++i) ws.order[i] = narrow_cast<std::uint32_t>(i);
            std::sort(ws.order.begin(), ws.order.end(),
                      [rel](std::uint32_t a, std::uint32_t c) {
                        return rel[a] < rel[c] || (rel[a] == rel[c] && a < c);
                      });
            for (std::size_t f = 2; f + 2 <= parity && !ok; f += 2) {
              ws.erasures.resize(f);
              for (std::size_t i = 0; i < f; ++i) ws.erasures[i] = ws.order[i];
              ok = rs_->decode_block_into(cw, ws.erasures, ws.rs, data);
              if (ok) result.erasures_used += f;
            }
          }
          result.decode_ok = result.decode_ok && ok;
        }
        ws.message_bits.resize(msg_n);
        unpack_bits({ws.bytes.data(), msg_bytes}, ws.message_bits);
        break;
      }
    }

    whitener_.apply_in_place(ws.message_bits);
    // CRC-16/CCITT-FALSE has zero xorout, so message || crc leaves a zero
    // residue.
    ws.bytes.resize(msg_n / 8);
    pack_bits(ws.message_bits, ws.bytes);
    result.crc_ok = crc16_ccitt(ws.bytes) == 0;
    if (cfg_.code.kind == CodeDescriptor::Kind::kReedSolomon && result.erasures_used > 0 &&
        !result.crc_ok) {
      // A GMD "success" that does not yield a clean CRC was a
      // miscorrection: an erasure-filled wrong codeword can sit farther
      // from the transmitted frame than the channel left it. Deliver the
      // received symbols instead, which is what errors-only decoding
      // would have handed up.
      const std::size_t n = rs_->n();
      const std::size_t k = rs_->k();
      const std::size_t msg_bytes = msg_n / 8;
      const std::size_t blocks = (msg_bytes + k - 1) / k;
      ws.bytes.resize(blocks * k);
      for (std::size_t b = 0; b < blocks; ++b)
        std::copy(ws.il_bytes.begin() + static_cast<std::ptrdiff_t>(b * n),
                  ws.il_bytes.begin() + static_cast<std::ptrdiff_t>(b * n + k),
                  ws.bytes.begin() + static_cast<std::ptrdiff_t>(b * k));
      ws.message_bits.resize(msg_n);
      unpack_bits({ws.bytes.data(), msg_bytes}, ws.message_bits);
      whitener_.apply_in_place(ws.message_bits);
      result.erasures_used = 0;
      result.decode_ok = false;
    }
    result.payload = {ws.message_bits.data(), payload_bits};
    return result;
  }

  CodedFrameConfig cfg_;
  std::optional<ConvolutionalCode> conv_;
  std::optional<ReedSolomon> rs_;
  sig::Scrambler whitener_;
};

}  // namespace rt::coding
