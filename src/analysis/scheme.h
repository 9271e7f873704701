// Modulation schemes expressed as code matrices (paper section 5.1).
//
// A scheme maps k data bits to a binary N x M drive matrix: which of the N
// pixels is driven in which of the M time slots. These builders express
// OOK, PAM, basic DSM and overlapped DSM-PQAM in that common abstraction
// so the minimum-distance machinery can compare them uniformly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/emulator.h"
#include "common/narrow.h"
#include "common/units.h"
#include "phy/constellation.h"

namespace rt::analysis {

/// Abstract scheme: bit count per analysis window and the bits -> code
/// matrix mapping.
class Scheme {
 public:
  virtual ~Scheme() = default;
  [[nodiscard]] virtual int data_bits() const = 0;
  [[nodiscard]] virtual double data_rate_bps() const = 0;
  /// Total emulation slots (includes tail so trailing pulses count).
  [[nodiscard]] virtual std::size_t total_slots() const = 0;
  [[nodiscard]] virtual CodeMatrix encode(std::span<const std::uint8_t> bits) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Trend-based OOK (PassiveVLC baseline): one pixel, one bit per
/// (tau_1 + tau_0) period -- drive high for the first half of the period
/// if the bit is 1.
class OokScheme final : public Scheme {
 public:
  OokScheme(int bits, double slot_s = rt::ms(0.5), int slots_per_bit = 8)
      : bits_(bits), slot_s_(slot_s), spb_(slots_per_bit) {
    RT_ENSURE(bits >= 1 && slots_per_bit >= 2, "bad OOK parameters");
  }

  [[nodiscard]] int data_bits() const override { return bits_; }
  [[nodiscard]] double data_rate_bps() const override {
    return 1.0 / (slot_s_ * static_cast<double>(spb_));
  }
  [[nodiscard]] std::size_t total_slots() const override {
    return static_cast<std::size_t>(bits_) * static_cast<std::size_t>(spb_) +
           static_cast<std::size_t>(spb_);
  }
  [[nodiscard]] std::string name() const override { return "OOK"; }

  [[nodiscard]] CodeMatrix encode(std::span<const std::uint8_t> bits) const override {
    RT_ENSURE(bits.size() == static_cast<std::size_t>(bits_), "bit count mismatch");
    CodeMatrix cm;
    cm.drive = linalg::RealMatrix(1, total_slots());
    cm.gains = {Complex(1.0, 0.0)};
    for (int b = 0; b < bits_; ++b) {
      if (!bits[b]) continue;
      // One charge pulse at the start of the bit period; the rest of the
      // period is the tau_0 discharge the slow LCM needs.
      cm.drive(0, static_cast<std::size_t>(b) * static_cast<std::size_t>(spb_)) = 1.0;
    }
    return cm;
  }

 private:
  int bits_;
  double slot_s_;
  int spb_;
};

/// Overlapped DSM-PQAM (the RetroTurbo scheme): L modules per polarization
/// group, each of `bits_per_axis` binary-weighted pixels, fired in
/// interleaved symbol slots; symbols are Gray-mapped PQAM levels.
///
/// Time is expressed on the LCM characterization grid: the DSM interleave
/// T equals `grid_slots_per_symbol` characterization slots, and the drive
/// stays high for `charge_slots` grid slots per firing.
class DsmPqamScheme final : public Scheme {
 public:
  DsmPqamScheme(int dsm_order, int bits_per_axis, double grid_slot_s,
                int grid_slots_per_symbol = 1, bool use_q = true, int payload_symbols = 0,
                int charge_slots = 1)
      : l_(dsm_order),
        bits_axis_(bits_per_axis),
        grid_slot_s_(grid_slot_s),
        sps_(grid_slots_per_symbol),
        use_q_(use_q),
        charge_slots_(charge_slots),
        constellation_(bits_per_axis, use_q) {
    RT_ENSURE(l_ >= 1 && bits_axis_ >= 1 && grid_slot_s_ > 0.0 && sps_ >= 1 && charge_slots_ >= 1,
              "bad DSM-PQAM parameters");
    payload_symbols_ = payload_symbols > 0 ? payload_symbols : 2 * l_;  // default: 2 DSM symbols
  }

  [[nodiscard]] int data_bits() const override {
    return payload_symbols_ * constellation_.bits_per_symbol();
  }
  [[nodiscard]] double data_rate_bps() const override {
    return constellation_.bits_per_symbol() / (grid_slot_s_ * static_cast<double>(sps_));
  }
  /// DSM symbol duration W = L * T.
  [[nodiscard]] double symbol_duration_s() const {
    return static_cast<double>(l_ * sps_) * grid_slot_s_;
  }
  [[nodiscard]] std::size_t total_slots() const override {
    return static_cast<std::size_t>((payload_symbols_ + 2 * l_) * sps_);
  }
  [[nodiscard]] std::string name() const override {
    return "DSM" + std::to_string(l_) + (use_q_ ? "-PQAM" : "-PAM") +
           std::to_string(constellation_.alphabet().size());
  }

  [[nodiscard]] CodeMatrix encode(std::span<const std::uint8_t> bits) const override {
    RT_ENSURE(bits.size() == static_cast<std::size_t>(data_bits()), "bit count mismatch");
    const int groups = use_q_ ? 2 : 1;
    const std::size_t pixels =
        static_cast<std::size_t>(groups) * static_cast<std::size_t>(l_) *
        static_cast<std::size_t>(bits_axis_);
    CodeMatrix cm;
    cm.drive = linalg::RealMatrix(pixels, total_slots());
    cm.gains.resize(pixels);
    // Pixel layout: group (I=0, Q=1) -> module (0..L-1) -> weight bit
    // (msb..lsb), binary-weighted areas normalized to module sum 1.
    const double denom = static_cast<double>((1 << bits_axis_) - 1);
    for (std::size_t p = 0; p < pixels; ++p) {
      const auto group = p / (static_cast<std::size_t>(l_) * bits_axis_);
      const auto within = p % (static_cast<std::size_t>(l_) * bits_axis_);
      const int weight_bit = bits_axis_ - 1 - narrow_cast<int>(within % bits_axis_);
      const double area = static_cast<double>(1 << weight_bit) / denom;
      cm.gains[p] = area * (group == 0 ? Complex(1.0, 0.0) : Complex(0.0, 1.0));
    }
    const int bps = constellation_.bits_per_symbol();
    for (int n = 0; n < payload_symbols_; ++n) {
      const auto sym =
          constellation_.map(bits.subspan(static_cast<std::size_t>(n) * bps, bps));
      const int m = n % l_;
      const std::size_t fire_slot = static_cast<std::size_t>(n) * static_cast<std::size_t>(sps_);
      const auto drive_level = [&](int group, int level) {
        if (level <= 0) return;
        for (int wb = 0; wb < bits_axis_; ++wb) {
          if (((level >> (bits_axis_ - 1 - wb)) & 1) == 0) continue;
          const std::size_t p = static_cast<std::size_t>(group) * l_ * bits_axis_ +
                                static_cast<std::size_t>(m) * bits_axis_ +
                                static_cast<std::size_t>(wb);
          for (int cs = 0; cs < charge_slots_; ++cs)
            cm.drive(p, fire_slot + static_cast<std::size_t>(cs)) = 1.0;
        }
      };
      drive_level(0, sym.level_i);
      if (use_q_) drive_level(1, sym.level_q);
    }
    return cm;
  }

  [[nodiscard]] const phy::Constellation& constellation() const { return constellation_; }
  [[nodiscard]] int payload_symbols() const { return payload_symbols_; }
  [[nodiscard]] int dsm_order() const { return l_; }
  [[nodiscard]] int bits_per_axis() const { return bits_axis_; }

 private:
  int l_;
  int bits_axis_;
  double grid_slot_s_;
  int sps_;
  bool use_q_;
  int payload_symbols_;
  int charge_slots_;
  phy::Constellation constellation_;
};

}  // namespace rt::analysis
