// Reference pulse model: per-module, history-fingerprinted templates.
//
// Section 4.3.3: a uniform pulse response p(t) fails in practice -- the
// pulse depends on the previous V firings of that module (tail effect) and
// varies per module (heterogeneity, illumination). The receiver therefore
// keeps, for each of the 2L modules and each of the 2^V histories, a
// complex template of one full DSM cycle (W = L*T), and the DFE selects
// the matching template for equalization and symbol regression.
#pragma once

#include <complex>
#include <functional>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/narrow.h"
#include "lcm/tag_array.h"
#include "phy/params.h"
#include "signal/waveform.h"

namespace rt::phy {

using Complex = std::complex<double>;

/// Produces the received complex baseband for a given firing schedule over
/// `duration_s` -- implemented by the sim layer (full channel) or tests.
using WaveformSource =
    std::function<sig::IqWaveform(std::span<const lcm::Firing>, double duration_s)>;

class PulseBank {
 public:
  /// Empty bank for workspace reuse; call resize() before use.
  PulseBank() = default;

  /// `modules` = L (I only) or 2L (I+Q); `entries` = 2^V; `pulse_len` in
  /// samples (W * fs).
  PulseBank(int modules, int entries, std::size_t pulse_len) {
    resize(modules, entries, pulse_len);
  }

  /// Reshapes the bank and zero-fills every pulse, reusing inner buffer
  /// capacity so a workspace-held bank stops allocating after warm-up.
  /// Also drops any pixel gains (a resized bank is untrained).
  void resize(int modules, int entries, std::size_t pulse_len) {
    RT_ENSURE(modules >= 1 && entries >= 1 && pulse_len >= 1, "bad pulse bank dimensions");
    modules_ = modules;
    entries_ = entries;
    pulse_len_ = pulse_len;
    pulses_.resize(static_cast<std::size_t>(modules) * static_cast<std::size_t>(entries));
    for (auto& p : pulses_) p.assign(pulse_len, Complex{});
    pixel_gains_.clear();
    bits_per_axis_ = 0;
  }

  [[nodiscard]] int modules() const { return modules_; }
  [[nodiscard]] int entries() const { return entries_; }
  [[nodiscard]] std::size_t pulse_len() const { return pulse_len_; }

  [[nodiscard]] std::span<const Complex> pulse(int module_global, unsigned history) const {
    return pulses_[index(module_global, history)];
  }

  void set_pulse(int module_global, unsigned history, std::vector<Complex> pulse) {
    RT_ENSURE(pulse.size() == pulse_len_, "pulse length mismatch");
    pulses_[index(module_global, history)] = std::move(pulse);
  }

  /// Mutable in-place access for trainers that write templates directly
  /// into the bank instead of building and moving a temporary.
  [[nodiscard]] std::span<Complex> pulse_mut(int module_global, unsigned history) {
    return pulses_[index(module_global, history)];
  }

  /// Applies a complex correction (e.g. residual rotation) to every entry.
  void scale(Complex factor) {
    for (auto& p : pulses_)
      for (auto& v : p) v *= factor;
  }

  /// Per-pixel complex gain corrections from the calibration rounds
  /// (extension to the paper's footnote-6 area-proportionality
  /// assumption). Defaults to 1 for every pixel; the equalizer multiplies
  /// each weight pixel's area by its gain.
  void set_pixel_gains(std::vector<Complex> gains, int bits_per_axis) {
    set_pixel_gains(std::span<const Complex>(gains), bits_per_axis);
  }

  /// Span form: copies into the bank's own storage (capacity reused).
  void set_pixel_gains(std::span<const Complex> gains, int bits_per_axis) {
    RT_ENSURE(gains.size() ==
                  static_cast<std::size_t>(modules_) * static_cast<std::size_t>(bits_per_axis),
              "one gain per (module, weight pixel) required");
    pixel_gains_.assign(gains.begin(), gains.end());
    bits_per_axis_ = bits_per_axis;
  }

  [[nodiscard]] Complex pixel_gain(int module_global, int weight_index) const {
    if (pixel_gains_.empty()) return Complex(1.0, 0.0);
    RT_ENSURE(module_global >= 0 && module_global < modules_ && weight_index >= 0 &&
                  weight_index < bits_per_axis_,
              "pixel gain index out of range");
    return pixel_gains_[static_cast<std::size_t>(module_global) * bits_per_axis_ + weight_index];
  }

  [[nodiscard]] bool has_pixel_gains() const { return !pixel_gains_.empty(); }

 private:
  [[nodiscard]] std::size_t index(int module_global, unsigned history) const {
    RT_ENSURE(module_global >= 0 && module_global < modules_, "module index out of range");
    RT_ENSURE(history < narrow_cast<unsigned>(entries_), "history index out of range");
    return static_cast<std::size_t>(module_global) * static_cast<std::size_t>(entries_) + history;
  }

  int modules_ = 0;
  int entries_ = 0;
  std::size_t pulse_len_ = 0;
  std::vector<std::vector<Complex>> pulses_;
  std::vector<Complex> pixel_gains_;  ///< empty = all unity
  int bits_per_axis_ = 0;
};

/// Measures ground-truth fingerprints by driving one module at a time with
/// an MLS history-enumeration pattern through `source` (paper section 5.2
/// methodology). Used for offline training data collection and as the
/// "oracle" bank in equalizer unit tests.
[[nodiscard]] PulseBank collect_fingerprints(const PhyParams& params, const WaveformSource& source);

}  // namespace rt::phy
