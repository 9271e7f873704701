// Which FEC (if any) a coded frame or rate option runs.
//
// The rate-adaptation table used to hardwire Reed-Solomon (rs_n/rs_k
// fields), silently reporting code rate 1.0 for anything else; this
// descriptor generalizes the (modulation rate, code) pairing so goodput
// math and threshold selection stay correct for convolutional options too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "common/error.h"

namespace rt::coding {

struct CodeDescriptor {
  /// 64-bit so the struct has no padding: every byte of a descriptor is
  /// set, and byte-wise views of it (e.g. gtest's parameter names) are
  /// the same on every run.
  enum class Kind : std::uint64_t { kNone, kReedSolomon, kConvolutional };

  Kind kind = Kind::kNone;
  std::size_t n = 0;  ///< RS: codeword symbols; unused otherwise
  std::size_t k = 0;  ///< RS: data symbols; conv: constraint length

  [[nodiscard]] static CodeDescriptor none() { return {}; }

  [[nodiscard]] static CodeDescriptor reed_solomon(std::size_t n, std::size_t k) {
    RT_ENSURE(n >= 3 && n <= 255 && k >= 1 && k < n, "invalid RS(n, k)");
    return {Kind::kReedSolomon, n, k};
  }

  /// Rate-1/2 convolutional code of the given constraint length (the
  /// K=7 (133, 171) pair by default; see coding::ConvolutionalCode).
  [[nodiscard]] static CodeDescriptor convolutional(std::size_t constraint_length = 7) {
    RT_ENSURE(constraint_length >= 3 && constraint_length <= 10, "invalid constraint length");
    return {Kind::kConvolutional, 0, constraint_length};
  }

  /// Fraction of transmitted bits that carry data. The convolutional
  /// rate ignores the (K-1)-bit trellis flush, which is negligible for
  /// frame-sized messages and keeps the rate frame-length independent.
  [[nodiscard]] double rate() const {
    switch (kind) {
      case Kind::kNone: return 1.0;
      case Kind::kReedSolomon: return static_cast<double>(k) / static_cast<double>(n);
      case Kind::kConvolutional: return 0.5;
    }
    return 1.0;
  }

  /// Human-readable tag: "", "RS(255,223)" or "CC(7,1/2)".
  [[nodiscard]] std::string label() const {
    char buf[32];
    switch (kind) {
      case Kind::kNone: return "";
      case Kind::kReedSolomon:
        std::snprintf(buf, sizeof(buf), "RS(%zu,%zu)", n, k);
        return buf;
      case Kind::kConvolutional:
        std::snprintf(buf, sizeof(buf), "CC(%zu,1/2)", k);
        return buf;
    }
    return "";
  }

  friend bool operator==(const CodeDescriptor&, const CodeDescriptor&) = default;
};

static_assert(std::has_unique_object_representations_v<CodeDescriptor>,
              "CodeDescriptor must have no padding bytes");

}  // namespace rt::coding
