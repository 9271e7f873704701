// Additive (synchronous) scrambler.
//
// Footnote 4 of the paper: the transmitter avoids DC stress on the liquid
// crystal by applying a data scrambler, so long runs of identical symbols
// do not park the constellation at one point. The same LFSR whitening is
// applied at both ends (XOR is its own inverse).
#pragma once

#include <cstdint>
#include <span>

#include "common/error.h"
#include "common/narrow.h"

namespace rt::sig {

/// Self-synchronous additive scrambler over bit vectors using the CCITT
/// V.34-style polynomial x^7 + x^4 + 1.
class Scrambler {
 public:
  explicit Scrambler(std::uint8_t seed = 0x7F) : seed_(seed & 0x7F) {
    RT_ENSURE(seed_ != 0, "scrambler seed must be non-zero");
  }

  /// XORs `bits` with the LFSR keystream in place. XOR is its own
  /// inverse, so this both scrambles and descrambles: applying it twice
  /// with the same seed restores the original data.
  void apply_in_place(std::span<std::uint8_t> bits) const {
    std::uint8_t state = seed_;
    for (auto& b : bits) b = narrow_cast<std::uint8_t>((b & 1U) ^ next_key(state));
  }

  /// Descrambles per-bit LLRs in place: XOR-ing a bit with keystream bit 1
  /// flips its meaning, which on the soft side is a sign flip (positive =
  /// bit 0 convention). Same keystream as apply_in_place().
  void apply_sign_in_place(std::span<float> llrs) const {
    std::uint8_t state = seed_;
    for (auto& llr : llrs)
      if (next_key(state)) llr = -llr;
  }

 private:
  /// One LFSR step: returns the keystream bit and shifts it into `state`.
  static std::uint8_t next_key(std::uint8_t& state) {
    const std::uint8_t key = narrow_cast<std::uint8_t>(((state >> 6) ^ (state >> 3)) & 1U);
    state = narrow_cast<std::uint8_t>(((state << 1) | key) & 0x7F);
    return key;
  }

  std::uint8_t seed_;
};

}  // namespace rt::sig
