// The full tag-side optical antenna: an array of 2L LCM modules over the
// retroreflector, split into an I group (back polarizers at 0deg) and a Q
// group (45deg), per the paper's PQAM design (section 4.2.2).
//
// Each pixel is an LC cell behind its module's back polarizer (theta_b).
// With the front polarizer detached (flicker-free, section 4.2.1) the
// cell splits the retroreflected light between theta_b (charged) and
// theta_b + 90deg (relaxed) in proportion to its alignment state c(t), so
// the complex two-PDR receiver sees
//   contribution(t) = gain * area * (2 c(t) - 1) * exp(j 2 (theta_b + eps))
// and I and Q pixels share one scalar pulse on orthogonal axes
// (p_I(t) = j p_Q(t)).
//
// The array is a time-stepped simulator: the PHY modulator schedules
// firings (module + drive level + time); synthesize_into() integrates
// every LC cell and emits the complex two-PDR baseband waveform the reader
// would see at unit link gain. A TagArray holds only the pixel hardware,
// drawn once at construction; the LC state of a synthesis lives in the
// caller's SynthScratch and starts relaxed, so one const TagArray serves
// every packet and thread. Roll misalignment, link gain, noise and
// frontend effects are applied downstream (sim / frontend layers).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "lcm/lc_cell.h"
#include "signal/waveform.h"

namespace rt::lcm {

/// Distribution widths for per-pixel manufacturing/illumination spread
/// (paper Fig. 11b). Zero-initialized = ideal homogeneous hardware.
struct Heterogeneity {
  double gain_sigma = 0.0;         ///< relative amplitude spread
  double timing_sigma = 0.0;       ///< relative time-constant spread
  double angle_sigma_rad = 0.0;    ///< polarizer attachment error spread
};

struct TagConfig {
  int dsm_order = 8;            ///< L: modules per polarization group
  int bits_per_axis = 2;        ///< log2(sqrt(P)): pixels per module; P = 4^bits_per_axis
  double slot_s = rt::ms(0.5);  ///< T: DSM interleaving time
  double charge_s = rt::ms(0.5);  ///< drive-on duration per firing (tau_1)
  LcTimings timings{};
  Heterogeneity heterogeneity{};
  double yaw_rad = 0.0;         ///< yaw misalignment; distorts LC response off-axis
  double yaw_timing_skew = 0.52; ///< strength of yaw-induced time-constant stretch
  std::uint64_t seed = 1;       ///< pixel heterogeneity draw

  [[nodiscard]] int pqam_order() const { return 1 << (2 * bits_per_axis); }
  [[nodiscard]] int levels_per_axis() const { return 1 << bits_per_axis; }
  /// DSM symbol duration W = L * T.
  [[nodiscard]] double symbol_duration_s() const {
    return static_cast<double>(dsm_order) * slot_s;
  }

  void validate() const {
    RT_ENSURE(dsm_order >= 1 && dsm_order <= 64, "DSM order must be in [1, 64]");
    RT_ENSURE(bits_per_axis >= 1 && bits_per_axis <= 4, "bits per axis must be in [1, 4]");
    RT_ENSURE(slot_s > 0.0 && charge_s > 0.0, "timings must be positive");
    RT_ENSURE(charge_s <= symbol_duration_s(), "charge duration cannot exceed W");
    timings.validate();
  }
};

/// One scheduled firing: at `time_s`, module `module` of each polarization
/// group is driven with the given level for TagConfig::charge_s seconds.
/// Level -1 means "do not touch this axis" (used by single-channel
/// baselines and calibration patterns).
struct Firing {
  double time_s = 0.0;
  int module = 0;   ///< 0 .. L-1
  int level_i = 0;  ///< 0 .. 2^bits_per_axis - 1, or -1 to skip
  int level_q = 0;
};

/// Reusable per-synthesis state for TagArray::synthesize_into(): the event
/// expansion and every pixel's LC state. A scratch held across packets
/// stops allocating once it has seen the largest schedule; every buffer is
/// fully overwritten per synthesis.
struct SynthScratch {
  struct Event {
    double t;
    int module;
    std::uint32_t seq;  ///< insertion index: sort ties resolve in push order
    bool is_i;
    int level;  ///< level to apply (release = 0)
  };
  std::vector<Event> events;
  std::vector<std::size_t> event_sample;
  std::vector<double> c_run;  ///< per-sample LC alignment rows for one segment
  // Per-pixel LC state in bank order, relaxed (all zero) at the start of
  // every synthesis.
  std::vector<double> drive;  ///< 1.0 driven / 0.0 released
  std::vector<double> c;      ///< LC alignment state
  std::vector<double> s;      ///< LC surface-memory state
};

class TagArray {
 public:
  /// Draws every pixel's parameters from `config.heterogeneity`, seeded by
  /// `config.seed`. Each module is a group of `bits_per_axis` binary-
  /// weighted pixels (areas 2^(bits-1) .. 1, normalized to sum 1), so
  /// driving level k charges the pixels of k's binary decomposition.
  ///
  /// Granularity of the spread reflects the hardware: each LCM module is
  /// one liquid-crystal cell behind one back polarizer, so the polarizer
  /// attachment error and the LC time constants are drawn once per module
  /// (and absorbed by the per-module online training), while the
  /// amplitude/transmission gain varies per pixel (etching/ITO spread --
  /// what the pixel-calibration extension estimates).
  explicit TagArray(const TagConfig& config);

  /// Runs the LC simulation over [0, duration_s) with the given firing
  /// schedule (must be sorted by time) and writes the complex baseband
  /// waveform at sample rate `fs` into `out` (capacity reused), expanding
  /// events into `scratch`. The waveform includes the static bias of
  /// relaxed pixels (a DC term the receiver regression removes). Every
  /// call starts from the idle tag: each cell relaxed and undriven.
  void synthesize_into(std::span<const Firing> schedule, double fs, double duration_s,
                       SynthScratch& scratch, sig::IqWaveform& out) const;

  [[nodiscard]] const TagConfig& config() const { return cfg_; }

  /// Per-symbol tag energy in joules-equivalent units: each driven pixel
  /// consumes charge proportional to its area and drive duration. Used by
  /// the power microbenchmark (section 7.2.2): the DSM symbol length, not
  /// the bit rate, fixes the power draw.
  [[nodiscard]] double drive_energy(std::span<const Firing> schedule) const;

  /// Per-pixel amplitude weight (gain * area) in bank order: the L I-group
  /// modules, then the L Q-group modules, each module's pixels largest
  /// first.
  [[nodiscard]] std::span<const double> pixel_weights() const { return bank_.w; }

 private:
  /// Struct-of-arrays static parameters of every pixel, in bank order
  /// [I modules x pixels, then Q modules x pixels]. synthesize_into()
  /// advances ALL cells per sample through one batched kernels::lc_step
  /// call.
  struct PixelBank {
    std::vector<double> tau_charge;  ///< per-pixel (module-granular) time constants
    std::vector<double> tau_relax;
    std::vector<double> w;           ///< gain * area amplitude weight
    std::vector<sig::Complex> axis;  ///< e^{j 2 theta} polarization axis
    double tau_slow = 0.0;           ///< uniform across the tag
    double tau_memory = 0.0;
    double k_mem = 0.0;
  };

  /// First bank index of a module's pixel run.
  [[nodiscard]] std::size_t bank_base(bool is_i, int module) const {
    const auto l = static_cast<std::size_t>(cfg_.dsm_order);
    const auto bits = static_cast<std::size_t>(cfg_.bits_per_axis);
    return ((is_i ? 0 : l) + static_cast<std::size_t>(module)) * bits;
  }

  /// Writes the binary decomposition of `level` into the drive lanes of
  /// one module (pixel 0, the largest, carries the top bit).
  void apply_level(bool is_i, int module, int level, std::vector<double>& drive) const;

  TagConfig cfg_;
  /// Yaw illumination gradient per module position, shared by the I and
  /// Q module at that position.
  std::vector<double> module_gain_;
  PixelBank bank_;
};

/// The modulated part of a tag's response to `schedule`: the synthesized
/// waveform minus the idle (never-fired) baseline of the same tag, which
/// removes the static relaxed-pixel bias. Rotation-free references and the
/// SNR reference power are built from it.
[[nodiscard]] std::vector<sig::Complex> modulated_response(const TagConfig& config,
                                                          std::span<const Firing> schedule,
                                                          double fs, double duration_s);

}  // namespace rt::lcm
