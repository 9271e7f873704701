// Rate-1/2 convolutional code with soft-decision Viterbi decoding.
//
// An alternative inner FEC for the rate-adaptation table: where
// Reed-Solomon handles symbol bursts, a convolutional code trades better
// random-error performance at low SNR. Generator polynomials are given in
// octal (default: the ubiquitous K=7 (133, 171) pair).
//
// The decoder runs one soft-decision core over per-bit LLRs (sign
// convention: positive = bit 0, as exported by phy::Constellation::
// unmap_soft_into); hard-decision decoding maps bits to +/-1 LLRs and is
// bit-identical to a classic Hamming-metric Viterbi, tie-breaking
// included. Every entry point writes into caller-owned buffers and runs
// over a flat workspace (no per-call heap traffic in steady state --
// rt_check C2 scans them).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/narrow.h"

namespace rt::coding {

/// Flat preallocated trellis for ConvolutionalCode::decode*_into(): two
/// metric generations plus a steps x n_states survivor array, all reused
/// across calls once grown to the deepest frame.
struct ConvWorkspace {
  std::vector<float> metric;              ///< path metric per state
  std::vector<float> next_metric;         ///< next generation being built
  std::vector<std::uint32_t> survivors;   ///< steps x n_states, (prev << 1) | bit
  std::vector<float> hard_llrs;           ///< +/-1 scratch for hard decoding
};

class ConvolutionalCode {
 public:
  explicit ConvolutionalCode(int constraint_length = 7, std::uint32_t g1_octal = 0133,
                             std::uint32_t g2_octal = 0171)
      : k_(constraint_length), g1_(g1_octal), g2_(g2_octal) {
    RT_ENSURE(k_ >= 3 && k_ <= 10, "constraint length must be in [3, 10]");
    const std::uint32_t mask = (1U << k_) - 1U;
    RT_ENSURE((g1_ & ~mask) == 0 && (g2_ & ~mask) == 0, "generator exceeds constraint length");
    RT_ENSURE(g1_ & 1U && g2_ & 1U, "generators must tap the newest bit");
  }

  [[nodiscard]] int constraint_length() const { return k_; }

  /// Coded length for a message: 2 * (bits + K - 1) including the flush.
  [[nodiscard]] std::size_t coded_bits(std::size_t message_bits) const {
    return 2 * (message_bits + static_cast<std::size_t>(k_) - 1);
  }
  /// Inverse of coded_bits().
  [[nodiscard]] std::size_t message_bits(std::size_t coded) const {
    RT_ENSURE(coded % 2 == 0 && coded / 2 >= static_cast<std::size_t>(k_ - 1),
              "coded stream shorter than the flush");
    return coded / 2 - static_cast<std::size_t>(k_ - 1);
  }

  /// Encodes `bits` plus (K-1) flush zeros into `out` (resized to
  /// coded_bits(); index writes only, so a warm buffer never reallocates).
  void encode_into(std::span<const std::uint8_t> bits, std::vector<std::uint8_t>& out) const {
    out.resize(coded_bits(bits.size()));
    std::uint32_t state = 0;
    std::size_t w = 0;
    const auto emit = [&](std::uint8_t bit) {
      state = ((state << 1) | bit) & ((1U << k_) - 1U);
      out[w++] = parity(state & g1_);
      out[w++] = parity(state & g2_);
    };
    for (const auto b : bits) emit(b & 1U);
    for (int i = 0; i < k_ - 1; ++i) emit(0);
  }

  /// Soft-decision Viterbi over per-bit LLRs (positive = bit 0); expects
  /// encode_into() framing (flushed trellis). Correlation branch metric: a path
  /// asserting coded bit c at LLR l pays (c ? l : -l), so disagreeing with
  /// a confident bit is expensive and an erased bit (l = 0) is free.
  /// Writes message_bits() decoded bits into `out`.
  void decode_soft_into(std::span<const float> llrs, ConvWorkspace& ws,
                        std::vector<std::uint8_t>& out) const {
    const std::size_t steps = llrs.size() / 2;
    RT_ENSURE(llrs.size() % 2 == 0, "coded stream must be pairs of LLRs");
    RT_ENSURE(steps >= static_cast<std::size_t>(k_ - 1), "stream shorter than the flush");
    const std::uint32_t n_states = 1U << (k_ - 1);
    constexpr float kInf = 1e30F;
    ws.metric.assign(n_states, kInf);
    ws.metric[0] = 0.0F;
    ws.next_metric.resize(n_states);
    ws.survivors.resize(steps * n_states);

    for (std::size_t t = 0; t < steps; ++t) {
      for (std::uint32_t s = 0; s < n_states; ++s) ws.next_metric[s] = kInf;
      const float l1 = llrs[2 * t];
      const float l2 = llrs[2 * t + 1];
      std::uint32_t* surv = ws.survivors.data() + t * n_states;
      for (std::uint32_t s = 0; s < n_states; ++s) {
        if (ws.metric[s] >= kInf) continue;
        for (std::uint32_t bit = 0; bit <= 1; ++bit) {
          const std::uint32_t full = ((s << 1) | bit) & ((1U << k_) - 1U);
          const std::uint32_t ns = full & (n_states - 1U);
          const float c1 = parity(full & g1_) ? l1 : -l1;
          const float c2 = parity(full & g2_) ? l2 : -l2;
          const float cost = ws.metric[s] + c1 + c2;
          if (cost < ws.next_metric[ns]) {
            ws.next_metric[ns] = cost;
            surv[ns] = (s << 1) | bit;
          }
        }
      }
      std::swap(ws.metric, ws.next_metric);
    }

    // Traceback from the flushed all-zero state; drop the flush bits.
    out.resize(steps - static_cast<std::size_t>(k_ - 1));
    std::uint32_t state = 0;
    for (std::size_t t = steps; t-- > 0;) {
      const std::uint32_t packed = ws.survivors[t * n_states + state];
      if (t < out.size()) out[t] = narrow_cast<std::uint8_t>(packed & 1U);
      state = packed >> 1;
    }
  }

  /// Hard-decision decode through the soft core (bits map to +/-1 LLRs;
  /// the path ordering equals the classic Hamming metric's, ties
  /// included). Writes message_bits() decoded bits into `out`.
  void decode_into(std::span<const std::uint8_t> coded, ConvWorkspace& ws,
                   std::vector<std::uint8_t>& out) const {
    ws.hard_llrs.resize(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i)
      ws.hard_llrs[i] = (coded[i] & 1U) ? -1.0F : 1.0F;
    decode_soft_into(ws.hard_llrs, ws, out);
  }

 private:
  [[nodiscard]] static std::uint8_t parity(std::uint32_t v) {
    return narrow_cast<std::uint8_t>(__builtin_popcount(v) & 1);
  }

  int k_;
  std::uint32_t g1_;
  std::uint32_t g2_;
};

}  // namespace rt::coding
