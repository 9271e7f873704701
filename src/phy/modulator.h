// PHY modulator: payload bits -> complete packet firing schedule.
//
// Builds the preamble, training field and payload sections (frame.h) and
// maps payload bits onto DSM slots through the PQAM constellation: slot n
// fires module (n mod L) on each polarization group with the Gray-coded
// amplitude levels of the next log2(P) bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/narrow.h"
#include "lcm/tag_array.h"
#include "obs/trace.h"
#include "phy/constellation.h"
#include "phy/frame.h"
#include "phy/params.h"
#include "signal/scrambler.h"

namespace rt::phy {

struct PacketSchedule {
  std::vector<lcm::Firing> firings;  ///< sorted by time; feed to TagArray
  FrameLayout layout;
  std::vector<SymbolLevels> payload_symbols;  ///< ground truth for testing
  int payload_symbol_count = 0;               ///< PQAM symbols (= active slots used)
  double duration_s = 0.0;                    ///< total frame duration incl. tail
};

/// Reusable modulation scratch.
struct ModulatorWorkspace {
  std::vector<std::uint8_t> bits;  ///< scrambled, padded payload bits
};

class Modulator {
 public:
  explicit Modulator(const PhyParams& params)
      : p_(params), constellation_(params.bits_per_axis, params.use_q_channel) {
    p_.validate();
    // Frame prefix (preamble + training + pixel calibration): its slots
    // all precede the payload, so it depends on the params alone.
    const auto layout = FrameLayout::for_params(p_, 0);
    prefix_ = preamble_firings(p_, layout.preamble_begin());
    const auto tfirings = training_firings(p_, training_schedule(p_, layout));
    prefix_.insert(prefix_.end(), tfirings.begin(), tfirings.end());
    const auto pfirings = pixel_training_firings(p_, layout);
    prefix_.insert(prefix_.end(), pfirings.begin(), pfirings.end());
    std::sort(prefix_.begin(), prefix_.end(),
              [](const lcm::Firing& a, const lcm::Firing& b) { return a.time_s < b.time_s; });
  }

  /// Number of padding-free payload bits per slot.
  [[nodiscard]] int bits_per_slot() const { return constellation_.bits_per_symbol(); }

  /// Builds a full packet into `out`, rebuilt inside its existing
  /// capacity. `payload_bits` is scrambled (DC balance, footnote 4),
  /// zero-padded to a whole number of firing groups, and mapped to
  /// symbols; `out.firings` comes out sorted by time.
  void modulate_into(std::span<const std::uint8_t> payload_bits, ModulatorWorkspace& ws,
                     PacketSchedule& out) const {
    RT_TRACE_SPAN("modulate");
    auto& bits = ws.bits;
    bits.assign(payload_bits.begin(), payload_bits.end());
    scrambler_.apply_in_place(bits);
    const int bps = bits_per_slot();
    // Pad to whole firing groups so the receiver can derive the symbol
    // count from the slot count alone (basic DSM keeps whole periods).
    const std::size_t group_bits =
        static_cast<std::size_t>(p_.dsm_order) * static_cast<std::size_t>(bps);
    // rt-check: alloc-ok (pads less than one firing group inside pooled ws.bits capacity)
    while (bits.size() % group_bits != 0) bits.push_back(0);
    const int payload_symbols = narrow_cast<int>(bits.size()) / bps;
    const int groups = payload_symbols / p_.dsm_order;
    const int payload_slots = groups * p_.period_slots();

    out.layout = FrameLayout::for_params(p_, payload_slots);
    out.payload_symbol_count = payload_symbols;

    out.firings.clear();
    out.firings.reserve(prefix_.size() + static_cast<std::size_t>(payload_symbols));
    out.firings.insert(out.firings.end(), prefix_.begin(), prefix_.end());
    // Payload: symbol s occupies the s-th *active* slot (basic DSM rests
    // for basic_rest_slots after every L-slot group). Payload firing times
    // ascend and all exceed every prefix time, so appending keeps the
    // whole schedule sorted without re-sorting (all times are distinct --
    // the full-sort result is the same sequence).
    out.payload_symbols.clear();
    out.payload_symbols.reserve(static_cast<std::size_t>(payload_symbols));
    for (int s = 0; s < payload_symbols; ++s) {
      const auto offset = static_cast<std::size_t>(s) * static_cast<std::size_t>(bps);
      const auto sym = constellation_.map(std::span(bits).subspan(offset, bps));
      out.payload_symbols.push_back(sym);
      const int slot = (s / p_.dsm_order) * p_.period_slots() + (s % p_.dsm_order);
      lcm::Firing f;
      f.time_s = (out.layout.payload_begin() + slot) * p_.slot_s;
      f.module = s % p_.dsm_order;
      f.level_i = sym.level_i;
      f.level_q = sym.level_q;
      out.firings.push_back(f);
    }
    RT_ASSERT(std::is_sorted(out.firings.begin(), out.firings.end(),
                             [](const lcm::Firing& a, const lcm::Firing& b) {
                               return a.time_s < b.time_s;
                             }));
    out.duration_s = out.layout.total_slots() * p_.slot_s;
  }

  [[nodiscard]] const Constellation& constellation() const { return constellation_; }
  [[nodiscard]] const PhyParams& params() const { return p_; }

 private:
  PhyParams p_;
  Constellation constellation_;
  sig::Scrambler scrambler_{};
  std::vector<lcm::Firing> prefix_;  ///< sorted frame-prefix firings
};

}  // namespace rt::phy
