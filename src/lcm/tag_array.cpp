#include "lcm/tag_array.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace rt::lcm {

namespace {

/// Yaw stretches the effective LC time constants (off-axis retardance) and
/// imposes an illumination gradient across the module row. These are the
/// "received symbol deviation" effects of section 7.2.1 that channel
/// training must absorb.
LcTimings yawed_timings(const LcTimings& base, double yaw_rad, double skew) {
  const double s = std::sin(yaw_rad);
  LcTimings t = base;
  const double stretch = 1.0 + skew * s * s;
  t.tau_charge_s *= stretch;
  t.tau_relax_s *= stretch;
  return t;
}

}  // namespace

TagArray::TagArray(const TagConfig& config) : cfg_(config) {
  cfg_.validate();
  const auto timings = yawed_timings(cfg_.timings, cfg_.yaw_rad, cfg_.yaw_timing_skew);
  const int l = cfg_.dsm_order;
  const int bits = cfg_.bits_per_axis;
  const double grad = 0.2 * std::sin(cfg_.yaw_rad);  // illumination gradient across the array
  module_gain_.resize(static_cast<std::size_t>(l));
  for (int m = 0; m < l; ++m) {
    const double pos = l > 1 ? (static_cast<double>(m) / (l - 1) - 0.5) : 0.0;
    module_gain_[m] = 1.0 + grad * pos;
  }

  const auto n_px = static_cast<std::size_t>(2 * l * bits);
  bank_.tau_charge.resize(n_px);
  bank_.tau_relax.resize(n_px);
  bank_.w.resize(n_px);
  bank_.axis.resize(n_px);
  bank_.tau_slow = timings.tau_slow_s;
  bank_.tau_memory = timings.tau_memory_s;
  bank_.k_mem = timings.memory_coupling;

  // Draw order (part of the seed's meaning): per module position, the I
  // module then the Q module; per module the polarizer error, the charge
  // then relax time constant, then one gain per pixel, largest first.
  const Heterogeneity& het = cfg_.heterogeneity;
  const double total_area = static_cast<double>((1 << bits) - 1);
  Rng rng(cfg_.seed);
  for (int m = 0; m < l; ++m) {
    for (const bool is_i : {true, false}) {
      const double polarizer_rad = is_i ? 0.0 : rt::deg_to_rad(45.0);
      const double angle_error_rad = het.angle_sigma_rad * rng.gaussian();
      LcTimings module_timings = timings;
      module_timings.tau_charge_s *= 1.0 + het.timing_sigma * rng.gaussian();
      module_timings.tau_relax_s *= 1.0 + het.timing_sigma * rng.gaussian();
      module_timings.validate();
      const sig::Complex axis = std::polar(1.0, 2.0 * (polarizer_rad + angle_error_rad));
      std::size_t p = bank_base(is_i, m);
      for (int b = bits - 1; b >= 0; --b, ++p) {
        const double area = static_cast<double>(1 << b) / total_area;  // full level -> 1.0
        const double gain = 1.0 + het.gain_sigma * rng.gaussian();
        RT_ENSURE(gain > 0.0, "heterogeneity produced non-positive gain");
        bank_.tau_charge[p] = module_timings.tau_charge_s;
        bank_.tau_relax[p] = module_timings.tau_relax_s;
        bank_.w[p] = gain * area;
        bank_.axis[p] = axis;
      }
    }
  }
}

void TagArray::apply_level(bool is_i, int module, int level, std::vector<double>& drive) const {
  const int bits = cfg_.bits_per_axis;
  RT_ENSURE(level >= 0 && level < (1 << bits), "drive level out of range");
  const std::size_t base = bank_base(is_i, module);
  for (int i = 0; i < bits; ++i) {
    const int bit = bits - 1 - i;
    drive[base + static_cast<std::size_t>(i)] = ((level >> bit) & 1) != 0 ? 1.0 : 0.0;
  }
}

void TagArray::synthesize_into(std::span<const Firing> schedule, double fs, double duration_s,
                               SynthScratch& scratch, sig::IqWaveform& out) const {
  RT_TRACE_SPAN("lc_synthesize");
  RT_ENSURE(fs > 0.0 && duration_s > 0.0, "sample rate and duration must be positive");
  RT_ENSURE(std::is_sorted(schedule.begin(), schedule.end(),
                           [](const Firing& a, const Firing& b) { return a.time_s < b.time_s; }),
            "firing schedule must be sorted by time");

  // Expand firings into set-level / release events.
  using Event = SynthScratch::Event;
  auto& events = scratch.events;
  events.clear();
  events.reserve(schedule.size() * 4);
  std::uint32_t seq = 0;
  for (const auto& f : schedule) {
    RT_ENSURE(f.module >= 0 && f.module < cfg_.dsm_order, "firing module out of range");
    if (f.level_i >= 0) {
      events.push_back({f.time_s, f.module, seq++, true, f.level_i});
      events.push_back({f.time_s + cfg_.charge_s, f.module, seq++, true, 0});
    }
    if (f.level_q >= 0) {
      events.push_back({f.time_s, f.module, seq++, false, f.level_q});
      events.push_back({f.time_s + cfg_.charge_s, f.module, seq++, false, 0});
    }
  }
  // (t, seq) ordering reproduces stable_sort-by-t exactly -- seq breaks
  // ties in insertion order -- while std::sort stays allocation-free
  // (libstdc++ stable_sort grabs a temporary merge buffer per call).
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  });

  const auto n = static_cast<std::size_t>(std::ceil(duration_s * fs));
  out.sample_rate_hz = fs;
  out.samples.assign(n, sig::Complex{});
  const double dt = 1.0 / fs;
  // Event times quantized to sample indices up front: comparing raw
  // floating-point times against i/fs makes an event land one sample late
  // or early depending on rounding of the schedule's time sums, which
  // would shift the whole waveform relative to the receiver's slot grid.
  auto& event_sample = scratch.event_sample;
  event_sample.resize(events.size());
  for (std::size_t e = 0; e < events.size(); ++e)
    event_sample[e] = static_cast<std::size_t>(std::llround(events[e].t * fs));
  std::size_t next_event = 0;
  // The idle tag: every cell relaxed (c = s = 0) and undriven.
  const std::size_t n_px = bank_.w.size();
  scratch.drive.assign(n_px, 0.0);
  scratch.c.assign(n_px, 0.0);
  scratch.s.assign(n_px, 0.0);
  const kernels::LcBankParams bp{bank_.tau_charge.data(), bank_.tau_relax.data(),
                                 bank_.tau_slow, bank_.tau_memory, bank_.k_mem};
  const int bits = cfg_.bits_per_axis;
  // Cap constant-drive segments so the per-sample alignment rows stay
  // cache-resident (kMaxRun * n_px doubles). Splitting a segment is free:
  // lc_step_run over k then j samples is the same op sequence as k + j.
  constexpr std::size_t kMaxRun = 128;
  std::size_t i = 0;
  while (i < n) {
    while (next_event < events.size() && event_sample[next_event] <= i) {
      const auto& e = events[next_event];
      apply_level(e.is_i, e.module, e.level, scratch.drive);
      ++next_event;
    }
    // Drive is now constant until the next event (or the end), so the
    // whole run advances through one segment kernel call that hands back
    // the per-sample alignment rows.
    std::size_t seg_end = n;
    if (next_event < events.size()) seg_end = std::min(seg_end, event_sample[next_event]);
    const std::size_t run = std::min(seg_end - i, kMaxRun);
    scratch.c_run.resize(run * n_px);
    // All 2*L*bits director ODEs advance in one batched kernel call; the
    // polarization sum below keeps a fixed accumulation order (pixels into
    // a module sum, module gain, then the I group followed by the Q
    // group), which the golden fixtures depend on bit for bit.
    kernels::lc_step_run(n_px, run, dt, scratch.drive.data(), scratch.c.data(), scratch.s.data(),
                         scratch.c_run.data(), bp);
    for (std::size_t t = 0; t < run; ++t) {
      const double* crow = scratch.c_run.data() + t * n_px;
      sig::Complex acc{};
      std::size_t p = 0;
      for (std::size_t m = 0; m < module_gain_.size(); ++m) {
        sig::Complex macc{};
        for (int b = 0; b < bits; ++b, ++p)
          macc += bank_.w[p] * (2.0 * crow[p] - 1.0) * bank_.axis[p];
        acc += module_gain_[m] * macc;
      }
      for (std::size_t m = 0; m < module_gain_.size(); ++m) {
        sig::Complex macc{};
        for (int b = 0; b < bits; ++b, ++p)
          macc += bank_.w[p] * (2.0 * crow[p] - 1.0) * bank_.axis[p];
        acc += module_gain_[m] * macc;
      }
      out[i + t] = acc;
    }
    i += run;
  }
}

double TagArray::drive_energy(std::span<const Firing> schedule) const {
  // Charge moved per firing ~ sum of driven pixel areas; drive duration is
  // constant (charge_s), so energy ~ sum of normalized levels.
  double total = 0.0;
  const double max_level = static_cast<double>((1 << cfg_.bits_per_axis) - 1);
  for (const auto& f : schedule) {
    if (f.level_i > 0) total += static_cast<double>(f.level_i) / max_level;
    if (f.level_q > 0) total += static_cast<double>(f.level_q) / max_level;
  }
  return total * cfg_.charge_s;
}

std::vector<sig::Complex> modulated_response(const TagConfig& config,
                                             std::span<const Firing> schedule, double fs,
                                             double duration_s) {
  const TagArray tag(config);
  SynthScratch scratch;
  sig::IqWaveform active;
  sig::IqWaveform idle;
  tag.synthesize_into(schedule, fs, duration_s, scratch, active);
  tag.synthesize_into({}, fs, duration_s, scratch, idle);
  std::vector<sig::Complex> out(active.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = active[i] - idle[i];
  return out;
}

}  // namespace rt::lcm
