#include "phy/mobile.h"

#include "common/narrow.h"
#include "lcm/tag_array.h"
#include "linalg/least_squares.h"
#include "signal/mls.h"

namespace rt::phy {

namespace {

/// Guard length flanking each sync field: V idle cycles, so block-start
/// histories are exactly zero and data-pulse windows never reach into the
/// sync pattern.
int sync_guard_slots(const PhyParams& p) {
  return std::max(1, p.training_memory) * p.dsm_order;
}

}  // namespace

MobileModulator::MobileModulator(const PhyParams& params, const MobileConfig& config)
    : p_(params), cfg_(config), constellation_(params.bits_per_axis, params.use_q_channel) {
  p_.validate();
  cfg_.validate(p_);
  RT_ENSURE(p_.basic_rest_slots == 0, "mobile segmentation assumes overlapped DSM");
}

std::vector<lcm::Firing> MobileModulator::sync_firings(const PhyParams& p, int first_slot,
                                                       int sync_slots) {
  // A fixed MLS-derived on/off pattern, offset from the preamble's so the
  // two cannot be confused.
  const auto seq = sig::mls(7);
  const int max_level = p.levels_per_axis() - 1;
  std::vector<lcm::Firing> out;
  for (int i = 0; i < sync_slots; ++i) {
    lcm::Firing f;
    f.time_s = (first_slot + i) * p.slot_s;
    f.module = i % p.dsm_order;
    f.level_i = seq[(31 + static_cast<std::size_t>(i)) % seq.size()] ? max_level : 0;
    f.level_q = p.use_q_channel
                    ? (seq[(73 + static_cast<std::size_t>(i)) % seq.size()] ? max_level : 0)
                    : -1;
    out.push_back(f);
  }
  return out;
}

MobilePacket MobileModulator::modulate(std::span<const std::uint8_t> payload_bits,
                                       bool scramble) const {
  std::vector<std::uint8_t> bits(payload_bits.begin(), payload_bits.end());
  if (scramble) scrambler_.apply_in_place(bits);
  const int bps = constellation_.bits_per_symbol();
  const std::size_t group_bits =
      static_cast<std::size_t>(p_.dsm_order) * static_cast<std::size_t>(bps);
  while (bits.size() % group_bits != 0) bits.push_back(0);
  const int total_symbols = narrow_cast<int>(bits.size()) / bps;

  MobilePacket out;
  out.layout = FrameLayout::for_params(p_, 0);
  const int guard = sync_guard_slots(p_);

  // Header (preamble + training) reuses the standard frame sections.
  out.firings = preamble_firings(p_, out.layout.preamble_begin());
  const auto tsched = training_schedule(p_, out.layout);
  const auto tfirings = training_firings(p_, tsched);
  out.firings.insert(out.firings.end(), tfirings.begin(), tfirings.end());

  int cursor = out.layout.payload_begin();
  int emitted = 0;
  int block_index = 0;
  while (emitted < total_symbols) {
    MobileBlock block;
    if (block_index > 0) {
      // guard | sync | guard
      block.sync_begin_slot = cursor + guard;
      const auto sf = sync_firings(p_, block.sync_begin_slot, cfg_.sync_slots);
      out.firings.insert(out.firings.end(), sf.begin(), sf.end());
      cursor = block.sync_begin_slot + cfg_.sync_slots + guard;
    }
    block.payload_begin_slot = cursor;
    block.payload_symbols = std::min(cfg_.block_symbols, total_symbols - emitted);
    block.payload_slots = block.payload_symbols;  // overlapped DSM: 1 symbol per slot
    for (int s = 0; s < block.payload_symbols; ++s) {
      const auto offset = static_cast<std::size_t>(emitted + s) * static_cast<std::size_t>(bps);
      const auto sym = constellation_.map(std::span(bits).subspan(offset, bps));
      out.payload_symbols.push_back(sym);
      lcm::Firing f;
      f.time_s = (block.payload_begin_slot + s) * p_.slot_s;
      f.module = s % p_.dsm_order;
      f.level_i = sym.level_i;
      f.level_q = sym.level_q;
      out.firings.push_back(f);
    }
    cursor += block.payload_slots;
    emitted += block.payload_symbols;
    out.blocks.push_back(block);
    ++block_index;
  }
  out.total_slots = cursor + p_.dsm_order;  // tail
  out.duration_s = out.total_slots * p_.slot_s;
  std::sort(out.firings.begin(), out.firings.end(),
            [](const lcm::Firing& a, const lcm::Firing& b) { return a.time_s < b.time_s; });
  return out;
}

MobileDemodulator::MobileDemodulator(const PhyParams& params, const MobileConfig& config,
                                     OfflineModel offline_model)
    : p_(params), cfg_(config), inner_(params, std::move(offline_model)) {
  cfg_.validate(p_);
  // Rotation-free sync reference from the ideal tag (same procedure as the
  // preamble reference).
  const auto firings = MobileModulator::sync_firings(p_, 0, cfg_.sync_slots);
  const double duration = (cfg_.sync_slots + p_.dsm_order) * p_.slot_s;
  sync_reference_ =
      lcm::modulated_response(p_.tag_config(), firings, p_.sample_rate_hz, duration);
}

MobileDemodulator::Result MobileDemodulator::demodulate(const sig::IqWaveform& rx,
                                                        const MobilePacket& packet,
                                                        const DemodOptions& options) const {
  Result out;
  PreambleWorkspace preamble_ws;
  const auto det = inner_.preamble().detect(rx, options.search_limit, preamble_ws);
  out.preamble_found = det.found;
  if (!det.found) return out;
  const std::size_t t_samps = p_.samples_per_slot();
  const std::size_t frame_start = det.start_sample;

  // One-time channel training on the header (section 4.3.3), valid for
  // pulse shapes; fast drift is handled per block below. `corrected` is
  // rebuilt from `rx` under each block's correction in pass 2.
  sig::IqWaveform corrected = rx;
  inner_.preamble().correct_in_place(corrected, det);
  PulseBank trained;
  const PulseBank* bank = options.oracle;
  if (bank == nullptr) {
    TrainingWorkspace training_ws;
    OnlineTrainer::train_into(p_, inner_.offline_model(), packet.layout, corrected, frame_start,
                              trained, training_ws);
    bank = &trained;
  }
  const DfeEqualizer eq(p_, *bank);

  const int modules = p_.use_q_channel ? 2 * p_.dsm_order : p_.dsm_order;
  const std::vector<unsigned> zero_hist(
      static_cast<std::size_t>(modules) * static_cast<std::size_t>(p_.bits_per_axis), 0U);

  Constellation constellation(p_.bits_per_axis, p_.use_q_channel);

  // Pass 1: estimate (a, b, c) at every known anchor -- the preamble
  // (anchored at its centre) and every sync field. A drifting channel is
  // then tracked by interpolating the coefficients to each block's centre
  // rather than holding the last estimate (which would lag by up to a
  // guard + block).
  struct Anchor {
    double slot;  ///< centre position, in frame slots
    Complex a, b, c;
  };
  std::vector<Anchor> anchors;
  anchors.push_back({0.5 * p_.preamble_slots, det.a, det.b, det.c});
  linalg::LsWorkspace<Complex> ls;
  for (const auto& block : packet.blocks) {
    if (block.sync_begin_slot == 0) continue;
    const std::size_t off =
        frame_start + static_cast<std::size_t>(block.sync_begin_slot) * t_samps;
    if (off + sync_reference_.size() > rx.size()) continue;
    linalg::ComplexMatrix design(sync_reference_.size(), 3);
    for (std::size_t i = 0; i < sync_reference_.size(); ++i) {
      const Complex x = rx[off + i];
      design(i, 0) = x;
      design(i, 1) = std::conj(x);
      design(i, 2) = Complex(1.0, 0.0);
    }
    const auto sol =
        linalg::solve_least_squares_into(design, std::span<const Complex>(sync_reference_), ls);
    if (sol.empty()) continue;  // degenerate sync window: skip this anchor
    anchors.push_back({block.sync_begin_slot + 0.5 * cfg_.sync_slots, sol[0], sol[1], sol[2]});
    ++out.blocks_resynced;
  }

  // Coefficients at an arbitrary slot: linear interpolation between the
  // bracketing anchors (amplitude/rotation drift is smooth on the packet
  // time scale), clamped at the ends.
  const auto coeffs_at = [&](double slot) -> Anchor {
    if (slot <= anchors.front().slot) return anchors.front();
    if (slot >= anchors.back().slot) return anchors.back();
    for (std::size_t i = 1; i < anchors.size(); ++i) {
      if (slot > anchors[i].slot) continue;
      const auto& lo = anchors[i - 1];
      const auto& hi = anchors[i];
      const double t = (slot - lo.slot) / (hi.slot - lo.slot);
      return {slot, lo.a + t * (hi.a - lo.a), lo.b + t * (hi.b - lo.b),
              lo.c + t * (hi.c - lo.c)};
    }
    return anchors.back();
  };

  // Pass 2: demodulate each block under its interpolated correction.
  EqualizerWorkspace eq_ws;
  EqualizerResult eqr;
  for (const auto& block : packet.blocks) {
    const double centre = block.payload_begin_slot + 0.5 * block.payload_slots;
    const auto anchor = coeffs_at(centre);
    PreambleDetection block_det = det;
    block_det.a = anchor.a;
    block_det.b = anchor.b;
    block_det.c = anchor.c;
    out.block_rotation_deg.push_back(-0.5 * rt::rad_to_deg(std::arg(block_det.a)));
    corrected = rx;
    inner_.preamble().correct_in_place(corrected, block_det);
    const std::size_t payload_begin =
        frame_start + static_cast<std::size_t>(block.payload_begin_slot) * t_samps;
    eq.equalize_into(corrected, payload_begin, block.payload_slots, zero_hist, eq_ws, eqr);
    for (const auto& sym : eqr.symbols) constellation.unmap_into(sym, out.bits);
  }
  if (options.descramble) sig::Scrambler{}.apply_in_place(out.bits);
  return out;
}

}  // namespace rt::phy
