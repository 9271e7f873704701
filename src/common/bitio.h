// Bit/byte packing helpers.
//
// PHY and coding layers move data as bit vectors (one bit per uint8_t
// element, MSB-first within each source byte); the host side works in
// bytes. pack_bits/unpack_bits are the single point of truth for that
// packing order, and write into caller-sized buffers so the coded packet
// path stays allocation-free.
#pragma once

#include <cstdint>
#include <span>

#include "common/error.h"
#include "common/narrow.h"

namespace rt {

/// Packs bits (MSB first per byte; only each element's low bit counts)
/// into bytes. `bits` must hold exactly 8 * bytes.size() elements.
inline void pack_bits(std::span<const std::uint8_t> bits, std::span<std::uint8_t> bytes) {
  RT_ENSURE(bits.size() == bytes.size() * 8, "pack_bits needs exactly 8 bits per byte");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::uint8_t v = 0;
    for (std::size_t j = 0; j < 8; ++j)
      v = narrow_cast<std::uint8_t>((v << 1) | (bits[i * 8 + j] & 1U));
    bytes[i] = v;
  }
}

/// Expands bytes to bits, MSB first. `bits` must hold exactly
/// 8 * bytes.size() elements.
inline void unpack_bits(std::span<const std::uint8_t> bytes, std::span<std::uint8_t> bits) {
  RT_ENSURE(bits.size() == bytes.size() * 8, "unpack_bits needs exactly 8 bits per byte");
  for (std::size_t i = 0; i < bytes.size(); ++i)
    for (std::size_t j = 0; j < 8; ++j)
      bits[i * 8 + j] = narrow_cast<std::uint8_t>((bytes[i] >> (7 - j)) & 1U);
}

/// Number of positions where the two bit vectors differ (for BER accounting).
[[nodiscard]] inline std::size_t hamming_distance(std::span<const std::uint8_t> a,
                                                  std::span<const std::uint8_t> b) {
  RT_ENSURE(a.size() == b.size(), "hamming_distance requires equal lengths");
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] != b[i]) ? 1 : 0;
  return d;
}

}  // namespace rt
