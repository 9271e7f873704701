// Systematic Reed-Solomon codec RS(n, k) over GF(256).
//
// The paper's coding-gain study (Fig. 18b) runs a stop-and-wait link with
// Reed-Solomon error correction at several coding rates; the rate-adaptive
// MAC picks (bit rate, coding rate) pairs from the SNR. This is a one-block
// encoder plus Berlekamp-Massey / Chien / Forney errors-and-erasures
// decoder; coding::CodedFrameCodec splits frames into blocks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/gf256.h"

namespace rt::coding {

class ReedSolomon {
 public:
  /// Reusable scratch for decode_block_into(): every polynomial buffer of
  /// the Berlekamp-Massey / Chien / Forney pipeline, pooled so the coded
  /// packet path decodes without per-call heap traffic.
  struct Scratch {
    std::vector<std::uint8_t> synd;
    std::vector<std::uint8_t> lambda;
    std::vector<std::uint8_t> b_poly;
    std::vector<std::uint8_t> t_poly;
    std::vector<std::uint8_t> omega;
    std::vector<std::uint8_t> deriv;
    std::vector<std::uint8_t> corrected;
    std::vector<std::size_t> error_pos;
    std::vector<std::uint8_t> rem;  ///< encode_block_into() remainder
  };

  /// n = total symbols per codeword (<= 255), k = data symbols; corrects up
  /// to (n - k) / 2 symbol errors.
  ReedSolomon(std::size_t n, std::size_t k);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t correctable_errors() const { return (n_ - k_) / 2; }
  [[nodiscard]] double code_rate() const {
    return static_cast<double>(k_) / static_cast<double>(n_);
  }

  /// Encodes exactly k data bytes into a caller-owned n-byte systematic
  /// codeword (data first, parity appended); no allocations once `scratch`
  /// is warm. `out` must not alias `data`.
  void encode_block_into(std::span<const std::uint8_t> data, Scratch& scratch,
                         std::span<std::uint8_t> out) const;

  /// Errors-and-erasures decode of one n-byte codeword into a caller-owned
  /// buffer. `erasures` lists distinct 0-based codeword positions flagged
  /// unreliable by the demapper (LLR-driven erasure marking); the decoder
  /// corrects e errors plus f erasures whenever 2e + f <= n - k, so each
  /// trusted erasure doubles its correction value. Writes the k data bytes
  /// into `data_out` (which must have size k); returns false on decode
  /// failure, leaving `data_out` holding the received systematic prefix.
  [[nodiscard]] bool decode_block_into(std::span<const std::uint8_t> codeword,
                                       std::span<const std::size_t> erasures, Scratch& scratch,
                                       std::span<std::uint8_t> data_out) const;

 private:
  std::size_t n_;
  std::size_t k_;
  std::vector<std::uint8_t> generator_;  // generator polynomial, degree n-k
};

}  // namespace rt::coding
