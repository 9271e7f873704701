#include "phy/demodulator.h"

#include <cmath>

#include "common/error.h"
#include "obs/trace.h"

namespace rt::phy {

Demodulator::Demodulator(const PhyParams& params, OfflineModel offline_model)
    : p_(params),
      offline_(std::move(offline_model)),
      preamble_(params),
      constellation_(params.bits_per_axis, params.use_q_channel) {
  p_.validate();
}

std::vector<unsigned> Demodulator::initial_payload_histories(const PhyParams& p,
                                                             const FrameLayout& layout) {
  const int l = p.dsm_order;
  const int modules = p.use_q_channel ? 2 * l : l;
  const unsigned mask = p.history_mask();
  const int guard_cycles = layout.guard_cycles();
  // One history per pixel (modules x bits_per_axis); training fires every
  // pixel of a module at once, so all pixels of a module start identical.
  // rt-check: alloc-ok (cold: result cached in ws.histories keyed by (params, layout))
  std::vector<unsigned> hist(static_cast<std::size_t>(modules) *
                                 static_cast<std::size_t>(p.bits_per_axis),
                             0);
  for (int m = 0; m < modules; ++m) {
    for (int wb = 0; wb < p.bits_per_axis; ++wb) {
      unsigned h = 0;
      // Looking back k cycles (W each) from the module's first payload
      // firing: k <= guard_cycles lands in the idle guard; then the
      // pixel-calibration rounds (this pixel fired only in its own round);
      // then training round 2L - remainder, fired iff module_global <=
      // that round (lower-triangular schedule).
      for (int k = 1; k <= p.training_memory; ++k) {
        bool fired = false;
        if (k > guard_cycles) {
          int back = k - guard_cycles;  // cycles into pixel rounds
          if (back <= layout.pixel_rounds) {
            const int pixel_round = layout.pixel_rounds - back;
            fired = pixel_round == wb;
          } else {
            back -= layout.pixel_rounds;  // through the inner guard (if any)
            if (layout.pixel_rounds > 0) {
              if (back <= guard_cycles) {
                fired = false;
              } else {
                const int round = layout.training_rounds - (back - guard_cycles);
                fired = round >= 0 && round < layout.training_rounds && m <= round;
              }
            } else {
              const int round = layout.training_rounds - back;
              fired = round >= 0 && round < layout.training_rounds && m <= round;
            }
          }
        }
        if (fired) h |= 1U << (k - 1);
      }
      hist[static_cast<std::size_t>(m) * p.bits_per_axis + wb] = h & mask;
    }
  }
  return hist;
}

void Demodulator::demodulate_into(sig::IqWaveform& rx, int payload_slots,
                                  const DemodOptions& options, DemodWorkspace& ws,
                                  DemodResult& out) const {
  RT_TRACE_SPAN("demodulate");
  RT_ENSURE(payload_slots >= 1, "need at least one payload slot");
  out.preamble_found = false;
  out.bits.clear();
  out.soft_bits.clear();
  out.equalizer_metric = 0.0;

  const auto det = preamble_.detect(rx, options.search_limit, ws.preamble);
  out.detection = det;
  out.preamble_found = det.found;
  if (!det.found) {
    RT_OBS_COUNT(kPreambleDetectFail, 1);
    return;
  }

  // The received buffer becomes the corrected-signal stage in place; every
  // downstream consumer reads the corrected samples.
  preamble_.correct_in_place(rx, det);
  const sig::IqWaveform& corrected = rx;
  const auto layout = FrameLayout::for_params(p_, payload_slots);
  const std::size_t frame_start = det.start_sample;
  const std::size_t t_samps = p_.samples_per_slot();

  const PulseBank* bank = options.oracle;
  if (bank == nullptr) {
    OnlineTrainer::train_into(p_, offline_, layout, corrected, frame_start, ws.trained,
                              ws.training);
    bank = &ws.trained;
  }

  const DfeEqualizer eq(p_, *bank);
  if (!ws.histories_valid || !(ws.histories_params == p_) || !(ws.histories_layout == layout)) {
    ws.histories = initial_payload_histories(p_, layout);
    ws.histories_params = p_;
    ws.histories_layout = layout;
    ws.histories_valid = true;
  }
  const std::size_t payload_begin =
      frame_start + static_cast<std::size_t>(layout.payload_begin()) * t_samps;
  eq.equalize_into(corrected, payload_begin, payload_slots, ws.histories, ws.eq, ws.eq_result,
                   options.soft_output);
  out.equalizer_metric = ws.eq_result.final_metric;
  RT_DCHECK_FINITE(out.equalizer_metric);

  // One span around the whole unmap/descramble stage (per-symbol spans
  // would swamp the trace buffer).
  RT_TRACE_SPAN("unmap");
  out.bits.reserve(static_cast<std::size_t>(payload_slots) * constellation_.bits_per_symbol());
  for (const auto& sym : ws.eq_result.symbols) constellation_.unmap_into(sym, out.bits);
  if (options.descramble) scrambler_.apply_in_place(out.bits);
  if (options.soft_output) {
    out.soft_bits.assign(ws.eq_result.soft_bits.begin(), ws.eq_result.soft_bits.end());
    // Descrambling XORs keystream-1 positions, which on the soft side is a
    // sign flip; hard bits and LLR signs stay consistent bit for bit.
    if (options.descramble) scrambler_.apply_sign_in_place(out.soft_bits);
    // Align each LLR's sign with the surviving path's decision. The raw
    // sign is the demapper's per-slot min-distance vote, but the DFE
    // winner decides each bit with the benefit of every later slot's
    // evidence and is measurably more reliable; the magnitude keeps the
    // local margin. After this, sign-slicing the soft stream reproduces
    // the hard decisions exactly (a zero margin carries the decision in
    // its sign bit, so consumers slice with std::signbit).
    for (std::size_t i = 0; i < out.soft_bits.size() && i < out.bits.size(); ++i) {
      const float mag = std::fabs(out.soft_bits[i]);
      out.soft_bits[i] = out.bits[i] != 0 ? -mag : mag;
    }
  }
}

}  // namespace rt::phy
