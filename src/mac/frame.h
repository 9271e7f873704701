// MAC frame format: [tag_id | seq | length | payload | CRC-16].
//
// The thin master-slave MAC (paper section 4.4) CRC-checks every uplink
// payload and triggers retransmission on failure.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coding/crc.h"
#include "common/error.h"
#include "common/narrow.h"

namespace rt::mac {

struct MacFrame {
  std::uint8_t tag_id = 0;
  std::uint8_t seq = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const MacFrame&, const MacFrame&) = default;
};

/// Serializes to bytes: tag_id, seq, len_hi, len_lo, payload..., crc_hi,
/// crc_lo (CRC over everything before it).
[[nodiscard]] inline std::vector<std::uint8_t> serialize(const MacFrame& f) {
  RT_ENSURE(f.payload.size() <= 0xFFFF, "payload too large for the 16-bit length field");
  std::vector<std::uint8_t> out;
  out.reserve(f.payload.size() + 6);
  out.push_back(f.tag_id);
  out.push_back(f.seq);
  out.push_back(narrow_cast<std::uint8_t>(f.payload.size() >> 8));
  out.push_back(narrow_cast<std::uint8_t>(f.payload.size() & 0xFF));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  const std::uint16_t crc = coding::crc16_ccitt(out);
  out.push_back(narrow_cast<std::uint8_t>(crc >> 8));
  out.push_back(narrow_cast<std::uint8_t>(crc & 0xFF));
  return out;
}

/// Parses and CRC-checks; nullopt on any corruption.
[[nodiscard]] inline std::optional<MacFrame> parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 6) return std::nullopt;
  const std::size_t len = (static_cast<std::size_t>(bytes[2]) << 8) | bytes[3];
  if (bytes.size() != len + 6) return std::nullopt;
  const std::uint16_t crc = coding::crc16_ccitt(bytes.first(bytes.size() - 2));
  const std::uint16_t got =
      narrow_cast<std::uint16_t>((bytes[bytes.size() - 2] << 8) | bytes[bytes.size() - 1]);
  if (crc != got) return std::nullopt;
  MacFrame f;
  f.tag_id = bytes[0];
  f.seq = bytes[1];
  f.payload.assign(bytes.begin() + 4, bytes.end() - 2);
  return f;
}

}  // namespace rt::mac
