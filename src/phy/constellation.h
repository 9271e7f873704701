// PQAM constellation mapping: bits <-> per-axis drive levels <-> complex
// symbols.
//
// Each polarization axis carries an amplitude level in {0 .. sqrt(P)-1}
// realized by the binary-weighted pixels; Gray labelling keeps adjacent
// levels one bit apart. The canonical complex symbol places the normalized
// I level on the real axis and the Q level on the imaginary axis.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/narrow.h"
#include "signal/gray.h"

namespace rt::phy {

using Complex = std::complex<double>;

/// One PQAM symbol as drive levels (Q level is -1 when the Q channel is
/// unused by the scheme, e.g. OOK/PAM baselines).
struct SymbolLevels {
  int level_i = 0;
  int level_q = 0;

  friend bool operator==(const SymbolLevels&, const SymbolLevels&) = default;
};

class Constellation {
 public:
  Constellation(int bits_per_axis, bool use_q_channel)
      : bits_(bits_per_axis), use_q_(use_q_channel) {
    RT_ENSURE(bits_ >= 1 && bits_ <= 4, "bits per axis must be in [1, 4]");
    // alphabet() is i-major, q-minor; the bit label Gray-decodes each axis
    // (matching unmap_into's MSB-first I-then-Q order).
    const std::size_t per_axis = narrow_cast<std::size_t>(levels_per_axis());
    for (std::size_t idx = 0; idx < alphabet_size(); ++idx) {
      const std::uint32_t li = narrow_cast<std::uint32_t>(use_q_ ? idx / per_axis : idx);
      const std::uint32_t lq = narrow_cast<std::uint32_t>(use_q_ ? idx % per_axis : 0);
      labels_[idx] = narrow_cast<std::uint8_t>(
          use_q_ ? (sig::gray_decode(li) << bits_) | sig::gray_decode(lq) : sig::gray_decode(li));
    }
  }

  [[nodiscard]] int bits_per_axis() const { return bits_; }
  [[nodiscard]] int levels_per_axis() const { return 1 << bits_; }
  [[nodiscard]] int bits_per_symbol() const { return use_q_ ? 2 * bits_ : bits_; }
  [[nodiscard]] std::size_t alphabet_size() const {
    const auto per_axis = static_cast<std::size_t>(levels_per_axis());
    return use_q_ ? per_axis * per_axis : per_axis;
  }

  /// All levels a symbol may take (Q fixed to -1 without the Q channel).
  [[nodiscard]] std::vector<SymbolLevels> alphabet() const {
    // rt-check: alloc-ok (cold: only tests and scheme names call it; the DFE loops over levels)
    std::vector<SymbolLevels> out;
    out.reserve(alphabet_size());
    for (int i = 0; i < levels_per_axis(); ++i) {
      if (use_q_) {
        for (int q = 0; q < levels_per_axis(); ++q) out.push_back({i, q});
      } else {
        out.push_back({i, -1});
      }
    }
    return out;
  }

  /// Maps `bits_per_symbol()` bits (MSB first: I bits then Q bits) to
  /// levels via Gray coding.
  [[nodiscard]] SymbolLevels map(std::span<const std::uint8_t> bits) const {
    RT_ENSURE(bits.size() == static_cast<std::size_t>(bits_per_symbol()),
              "wrong number of bits for one symbol");
    const auto to_level = [&](std::size_t offset) {
      std::uint32_t v = 0;
      for (int b = 0; b < bits_; ++b) v = (v << 1) | bits[offset + static_cast<std::size_t>(b)];
      return narrow_cast<int>(sig::gray_encode(v));
    };
    SymbolLevels s;
    s.level_i = to_level(0);
    s.level_q = use_q_ ? to_level(static_cast<std::size_t>(bits_)) : -1;
    return s;
  }

  /// Inverse of map(): appends the bits of `s` (MSB first, I bits then Q
  /// bits) to a caller-owned buffer (no allocation once the buffer has
  /// capacity).
  void unmap_into(const SymbolLevels& s, std::vector<std::uint8_t>& bits) const {
    const auto push_level = [&](int level) {
      RT_ENSURE(level >= 0 && level < levels_per_axis(), "level out of range");
      const std::uint32_t v = sig::gray_decode(narrow_cast<std::uint32_t>(level));
      for (int b = bits_ - 1; b >= 0; --b)
        // rt-check: alloc-ok (appends into the caller's pooled buffer; capacity reached at warm-up)
        bits.push_back(narrow_cast<std::uint8_t>((v >> b) & 1U));
    };
    push_level(s.level_i);
    if (use_q_) push_level(s.level_q);
  }

  /// Appends max-log-MAP per-bit LLRs for one slot to a caller-owned
  /// buffer. `scores` holds one distance-style score per alphabet() entry
  /// (same i-major order); for each of the bits_per_symbol() bit positions
  /// the LLR is min-score-over-bit=1 minus min-score-over-bit=0, so
  /// positive = bit 0, and the magnitude is the decision margin in score
  /// units. Any additive constant shared by all scores cancels.
  void unmap_soft_into(std::span<const double> scores, std::vector<float>& llrs) const {
    const auto nb = static_cast<std::size_t>(bits_per_symbol());
    constexpr double kInf = 1e300;
    std::array<std::array<double, 2>, 8> mins{};  // [bit position][bit value]
    for (auto& m : mins) m = {kInf, kInf};
    RT_ENSURE(scores.size() == alphabet_size(), "one score per alphabet entry required");
    for (std::size_t idx = 0; idx < scores.size(); ++idx) {
      const unsigned label = labels_[idx];
      const double score = scores[idx];
      for (std::size_t j = 0; j < nb; ++j) {
        auto& slot = mins[j][(label >> (nb - 1 - j)) & 1U];
        slot = score < slot ? score : slot;
      }
    }
    for (std::size_t j = 0; j < nb; ++j)
      // rt-check: alloc-ok (appends into the caller's pooled buffer; capacity reached at warm-up)
      llrs.push_back(static_cast<float>(mins[j][1] - mins[j][0]));
  }

  /// Normalized drive fraction rho in [0, 1] for a level.
  [[nodiscard]] double rho(int level) const {
    if (level < 0) return 0.0;
    RT_ENSURE(level < levels_per_axis(), "level out of range");
    if (levels_per_axis() == 1) return static_cast<double>(level);
    return static_cast<double>(level) / static_cast<double>(levels_per_axis() - 1);
  }

  /// Canonical complex constellation point (rho_i, rho_q).
  [[nodiscard]] Complex point(const SymbolLevels& s) const {
    return {rho(s.level_i), use_q_ ? rho(s.level_q) : 0.0};
  }

 private:
  int bits_;
  bool use_q_;
  std::array<std::uint8_t, 256> labels_{};  ///< bit label per alphabet() entry (<= 8 bits)
};

}  // namespace rt::phy
