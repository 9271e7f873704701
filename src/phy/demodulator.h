// End-to-end PHY receiver: preamble sync + rotation correction, per-packet
// online channel training, K-branch DFE equalization, symbol de-mapping
// and descrambling.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "phy/equalizer.h"
#include "phy/modulator.h"
#include "phy/preamble.h"
#include "phy/training.h"

namespace rt::phy {

struct DemodOptions {
  bool descramble = true;
  const PulseBank* oracle = nullptr;  ///< bypasses online training when set
  std::size_t search_limit = 0;       ///< preamble search bound (0 = whole waveform)
  bool soft_output = false;           ///< also export per-bit LLRs in soft_bits
};

struct DemodResult {
  bool preamble_found = false;
  std::vector<std::uint8_t> bits;  ///< recovered payload bits (padded length)
  /// Per-bit LLRs aligned with `bits` (positive = bit 0), descrambled by
  /// sign; empty unless DemodOptions::soft_output.
  std::vector<float> soft_bits;
  PreambleDetection detection;
  double equalizer_metric = 0.0;
};

/// Reusable per-packet receiver scratch: one sub-workspace per pipeline
/// stage plus the trained pulse bank and the cached initial histories
/// (a pure function of (PhyParams, FrameLayout)).
struct DemodWorkspace {
  PreambleWorkspace preamble;
  TrainingWorkspace training;
  PulseBank trained;            ///< online-trained bank, rebuilt in place
  EqualizerWorkspace eq;
  EqualizerResult eq_result;
  std::vector<unsigned> histories;
  bool histories_valid = false;
  PhyParams histories_params;
  FrameLayout histories_layout;
};

class Demodulator {
 public:
  Demodulator(const PhyParams& params, OfflineModel offline_model);

  /// Demodulates one packet of `payload_slots` slots from `rx`. `rx` is
  /// rotation-corrected IN PLACE (the caller's waveform buffer doubles as
  /// the corrected-signal stage), so a caller that needs the received
  /// samples again must demodulate a copy; `out` is rebuilt inside its
  /// existing capacity.
  void demodulate_into(sig::IqWaveform& rx, int payload_slots, const DemodOptions& options,
                       DemodWorkspace& ws, DemodResult& out) const;

  /// Module firing histories at the first payload slot, derived from the
  /// frame layout (training field then guard).
  [[nodiscard]] static std::vector<unsigned> initial_payload_histories(const PhyParams& p,
                                                                       const FrameLayout& layout);

  [[nodiscard]] const PreambleProcessor& preamble() const { return preamble_; }
  [[nodiscard]] const PhyParams& params() const { return p_; }
  [[nodiscard]] const OfflineModel& offline_model() const { return offline_; }

 private:
  PhyParams p_;
  OfflineModel offline_;
  PreambleProcessor preamble_;
  Constellation constellation_;
  sig::Scrambler scrambler_{};
};

}  // namespace rt::phy
