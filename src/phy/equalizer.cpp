#include "phy/equalizer.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/narrow.h"
#include "obs/trace.h"

namespace rt::phy {

namespace {

// The pulse bank stores per-module templates keyed by
// (V-bit pixel history << 1) | fired, measured at full level with uniform
// pixel history. Because pixel responses are proportional to area (paper
// footnote 6), a module's waveform for an arbitrary level and per-pixel
// histories decomposes as
//   sum_{weight pixels b} area_b * template[module][(hist_b << 1) | fired_b]
// with fired_b the level's weight bit. Unfired pixels with recent history
// still contribute their discharge tails (the fired=0 templates) -- the
// residue that would otherwise accumulate as an error floor for dense
// constellations. The equalizer therefore tracks a V-bit history per
// *pixel*.

using Branch = EqualizerWorkspace::Branch;
using Scored = EqualizerWorkspace::Scored;

/// Writes the merge key of `b` -- the last (L - 1) decisions (whose pulses
/// still overlap future slots) plus every pixel history -- into `dst`
/// (fixed stride, zero-padded head). All branches compared within one slot
/// carry the same number of decisions, so the padded fixed-width layout
/// equals the variable-length key byte for byte where it matters.
void write_merge_key(const Branch& b, int dsm_order, std::span<char> dst) {
  std::memset(dst.data(), 0, dst.size());
  const std::size_t tail = std::min<std::size_t>(b.decisions.size(),
                                                 static_cast<std::size_t>(dsm_order - 1));
  std::size_t w = 0;
  for (std::size_t i = b.decisions.size() - tail; i < b.decisions.size(); ++i) {
    // rt-lint: narrowing-ok (opaque hash key; only equality matters)
    dst[w++] = static_cast<char>(b.decisions[i].level_i + 2);
    dst[w++] = static_cast<char>(b.decisions[i].level_q + 2);  // rt-lint: narrowing-ok
  }
  dst[w++] = '|';
  // rt-lint: narrowing-ok (opaque hash key; only equality matters)
  for (const auto h : b.pixel_hist) dst[w++] = static_cast<char>(h);
}

}  // namespace

DfeEqualizer::DfeEqualizer(const PhyParams& params, const PulseBank& bank)
    : p_(params), bank_(bank), constellation_(params.bits_per_axis, params.use_q_channel) {
  p_.validate();
  const int expected_modules = p_.use_q_channel ? 2 * p_.dsm_order : p_.dsm_order;
  RT_ENSURE(bank.modules() == expected_modules, "pulse bank module count mismatch");
  RT_ENSURE(bank.entries() == p_.fingerprint_entries(), "pulse bank key-space mismatch");
  RT_ENSURE(bank.pulse_len() == p_.samples_per_symbol(), "pulse bank template length mismatch");
}

void DfeEqualizer::equalize_into(const sig::IqWaveform& rx, std::size_t payload_begin,
                                 int n_slots, std::span<const unsigned> initial_histories,
                                 EqualizerWorkspace& ws, EqualizerResult& out,
                                 bool soft_output) const {
  RT_TRACE_SPAN("dfe");
  RT_ENSURE(n_slots >= 1, "need at least one slot");
  const int l = p_.dsm_order;
  const int modules = p_.use_q_channel ? 2 * l : l;
  const int bits = p_.bits_per_axis;
  const std::size_t n_pixels = static_cast<std::size_t>(modules) * static_cast<std::size_t>(bits);
  RT_ENSURE(initial_histories.size() == n_pixels,
            "initial history count must equal the pixel count (modules x bits_per_axis)");
  const std::size_t t_samps = p_.samples_per_slot();
  const std::size_t w_samps = p_.samples_per_symbol();
  const unsigned hist_mask = p_.history_mask();
  const double area_denom = static_cast<double>((1 << bits) - 1);

  // rx sample at absolute index, zero beyond the end.
  const auto rx_at = [&](std::size_t idx) -> Complex {
    return idx < rx.size() ? rx[idx] : Complex{};
  };

  // Module waveform terms for `level` given per-pixel histories: one
  // area-weighted template per pixel whose (history, fired) key is
  // non-zero -- including the tail terms of unfired pixels. Writes at most
  // `bits` terms to `dst` and returns how many.
  const auto gather_terms = [&](int module_global, int level,
                                std::span<const unsigned> pixel_hist,
                                kernels::CTerm* dst) -> std::size_t {
    const std::size_t base =
        static_cast<std::size_t>(module_global) * static_cast<std::size_t>(bits);
    std::size_t n_terms = 0;
    for (int wb = 0; wb < bits; ++wb) {
      const int weight_bit = bits - 1 - wb;  // wb 0 = largest pixel
      const unsigned fired = (level > 0 && ((level >> weight_bit) & 1)) ? 1U : 0U;
      const unsigned h = pixel_hist[base + static_cast<std::size_t>(wb)] & hist_mask;
      const unsigned key = (h << 1) | fired;
      if (key == 0) continue;
      const double area = static_cast<double>(1 << weight_bit) / area_denom;
      dst[n_terms++] = {bank_.pulse(module_global, key).data(),
                        area * bank_.pixel_gain(module_global, wb)};
    }
    return n_terms;
  };

  // Seed branch reuses pool slot 0; every field is fully rewritten.
  if (ws.cur.empty()) ws.cur.emplace_back();  // rt-check: alloc-ok (pool seeding, first packet only)
  {
    Branch& seed = ws.cur[0];
    seed.metric = 0.0;
    seed.decisions.clear();
    seed.llrs.clear();
    seed.pixel_hist.assign(initial_histories.begin(), initial_histories.end());
    seed.residual.resize(w_samps);
    for (std::size_t k = 0; k < w_samps; ++k) seed.residual[k] = rx_at(payload_begin + k);
  }
  ws.n_cur = 1;

  // Candidate `ci = (bi * levels + li) * q_levels + lq` (see equalizer.h):
  // each parent's row is one score per Constellation::alphabet() entry --
  // I level outer, Q level inner (-1 without the Q channel) -- which is the
  // layout unmap_soft_into() reads.
  const int levels = 1 << bits;
  const int q_levels = p_.use_q_channel ? levels : 1;
  const auto row = static_cast<std::size_t>(q_levels);  // scores per (branch, I level)
  const auto alphabet_size = static_cast<std::size_t>(levels) * row;
  const auto term_slots = static_cast<std::size_t>(bits);  // at most one term per pixel

  // Fixed-size scratch, sized once per call (capacity persists).
  ws.terms.resize(2 * term_slots);
  ws.partial.resize(t_samps);
  ws.q_terms.resize(row * term_slots);
  ws.q_counts.assign(row, 0);

  // Merge-key layout: fixed stride so keys live in one flat buffer.
  const std::size_t key_stride =
      2 * static_cast<std::size_t>(l > 0 ? l - 1 : 0) + 1 + n_pixels;
  const auto max_branches = static_cast<std::size_t>(p_.equalizer_branches);
  // Min-heap under the total order (metric, enumeration index).
  const auto pops_later = [](const Scored& a, const Scored& b) {
    return a.metric > b.metric || (a.metric == b.metric && a.index > b.index);
  };

  for (int n = 0; n < n_slots; ++n) {
    if (!p_.slot_active(n)) {
      // Basic-DSM rest slot: no firing to decide. Score the window energy
      // (a correct past cancels to noise; a wrong decision leaves residual
      // here), then slide every branch forward one slot.
      for (std::size_t bi = 0; bi < ws.n_cur; ++bi) {
        Branch& b = ws.cur[bi];
        for (std::size_t k = 0; k < t_samps; ++k) b.metric += std::norm(b.residual[k]);
        for (std::size_t k = t_samps; k < w_samps; ++k) b.residual[k - t_samps] = b.residual[k];
        const std::size_t next_window_begin =
            payload_begin + (static_cast<std::size_t>(n) + 1) * t_samps + (w_samps - t_samps);
        for (std::size_t k = 0; k < t_samps; ++k)
          b.residual[w_samps - t_samps + k] = rx_at(next_window_begin + k);
      }
      continue;
    }
    const int m = p_.slot_module(n);
    // Scoring: a candidate's error is the residual minus its I terms minus
    // its Q terms, subtracted one at a time in that order. The I terms
    // depend on the I level only, so each I level's partial residual is
    // built once per branch and every Q level is scored against it; the Q
    // terms are gathered once per branch. Storing and reloading the
    // partial residual is exact, so each score is the double that one
    // dfe_score over all of the candidate's terms returns.
    const std::size_t n_cand = ws.n_cur * alphabet_size;
    ws.scores.resize(n_cand);
    std::size_t ci = 0;
    for (std::size_t bi = 0; bi < ws.n_cur; ++bi) {
      const auto& b = ws.cur[bi];
      if (p_.use_q_channel) {
        for (int lq = 0; lq < q_levels; ++lq) {
          const auto q = static_cast<std::size_t>(lq);
          ws.q_counts[q] = gather_terms(l + m, lq, b.pixel_hist, &ws.q_terms[q * term_slots]);
        }
      }
      for (int li = 0; li < levels; ++li) {
        const std::size_t n_i = gather_terms(m, li, b.pixel_hist, ws.terms.data());
        kernels::dfe_residual(t_samps, b.residual.data(), ws.partial.data(), ws.terms.data(),
                              n_i);
        for (std::size_t q = 0; q < row; ++q) {
          ws.scores[ci++] = b.metric + kernels::dfe_score(t_samps, ws.partial.data(),
                                                          &ws.q_terms[q * term_slots],
                                                          ws.q_counts[q]);
        }
      }
    }

    // Survivor selection: pop candidates best-first from the heap into the
    // `next` pool, optionally merging identical trellis states. Copy
    // assignment into pooled branches reuses the inner vectors' capacity.
    // The scores stay in place for the soft demapper.
    RT_OBS_COUNT(kDfeBranchesExpanded, n_cand);
    ws.heap.resize(n_cand);
    for (std::size_t c = 0; c < n_cand; ++c) ws.heap[c] = {ws.scores[c], c};
    std::make_heap(ws.heap.begin(), ws.heap.end(), pops_later);
    auto heap_end = ws.heap.end();
    std::size_t n_next = 0;
    std::size_t n_seen = 0;
    std::size_t n_merged = 0;
    if (p_.merge_equalizer_states) ws.seen_keys.resize(max_branches * key_stride);
    while (n_next < max_branches && heap_end != ws.heap.begin()) {
      std::pop_heap(ws.heap.begin(), heap_end, pops_later);
      --heap_end;
      const Scored c = *heap_end;
      const std::size_t parent_idx = c.index / alphabet_size;
      const std::size_t sym_idx = c.index % alphabet_size;
      const SymbolLevels sym{narrow_cast<int>(sym_idx / row),
                             p_.use_q_channel ? narrow_cast<int>(sym_idx % row) : -1};
      const auto& parent = ws.cur[parent_idx];
      // rt-check: alloc-ok (branch pool grows to K once, then steady state reuses the slots)
      if (n_next == ws.next.size()) ws.next.emplace_back();
      Branch& nb = ws.next[n_next];
      nb.metric = c.metric;
      nb.decisions = parent.decisions;
      // rt-check: alloc-ok (pooled branch buffer; capacity reaches the slot count at warm-up)
      nb.decisions.push_back(sym);
      nb.pixel_hist = parent.pixel_hist;
      // Per-pixel history update for the cycled modules. Histories count
      // in W-cycles; in basic DSM a firing period spans (L + rest) / L
      // cycles, so the shift distance grows accordingly (the rest cycles
      // are idle zeros).
      const int hist_shifts = std::max(1, (p_.period_slots() + l - 1) / l);  // ceil: basic DSM periods exceed W
      const auto update_hist = [&](int module_global, int level) {
        const std::size_t base =
            static_cast<std::size_t>(module_global) * static_cast<std::size_t>(bits);
        for (int wb = 0; wb < bits; ++wb) {
          const int weight_bit = bits - 1 - wb;
          const unsigned fired = (level > 0 && ((level >> weight_bit) & 1)) ? 1U : 0U;
          auto& h = nb.pixel_hist[base + static_cast<std::size_t>(wb)];
          h = ((h << hist_shifts) | (fired << (hist_shifts - 1))) & hist_mask;
        }
      };
      update_hist(m, sym.level_i);
      if (p_.use_q_channel) update_hist(l + m, sym.level_q);
      if (p_.merge_equalizer_states) {
        const std::span<char> key(ws.seen_keys.data() + n_seen * key_stride, key_stride);
        write_merge_key(nb, l, key);
        bool dup = false;
        for (std::size_t s = 0; s < n_seen; ++s) {
          if (std::memcmp(ws.seen_keys.data() + s * key_stride, key.data(), key_stride) == 0) {
            dup = true;  // a better-metric twin already survived
            break;
          }
        }
        if (dup) {
          ++n_merged;
          continue;
        }
        ++n_seen;
      }
      if (soft_output) {
        nb.llrs = parent.llrs;
        constellation_.unmap_soft_into(
            {ws.scores.data() + parent_idx * alphabet_size, alphabet_size}, nb.llrs);
      }
      // Decision feedback: subtract the decided cycle's waveform over its
      // full W span, then slide the window one slot forward.
      std::size_t n_terms = gather_terms(m, sym.level_i, parent.pixel_hist, ws.terms.data());
      if (p_.use_q_channel)
        n_terms += gather_terms(l + m, sym.level_q, parent.pixel_hist, ws.terms.data() + n_terms);
      nb.residual.resize(w_samps);
      // Re-base every template at the feedback offset so the kernel walks
      // contiguous arrays: dst[k] = src[t_samps + k] - sum w * tmpl[t_samps + k].
      ws.tail_terms.resize(n_terms);
      for (std::size_t t = 0; t < n_terms; ++t)
        ws.tail_terms[t] = {ws.terms[t].tmpl + t_samps, ws.terms[t].w};
      kernels::dfe_residual(w_samps - t_samps, parent.residual.data() + t_samps,
                            nb.residual.data(), ws.tail_terms.data(), ws.tail_terms.size());
      const std::size_t next_window_begin =
          payload_begin + (static_cast<std::size_t>(n) + 1) * t_samps + (w_samps - t_samps);
      for (std::size_t k = 0; k < t_samps; ++k)
        nb.residual[w_samps - t_samps + k] = rx_at(next_window_begin + k);
      ++n_next;
    }
    RT_OBS_COUNT(kDfeStateMerges, n_merged);
    RT_OBS_COUNT(kDfeBranchesPruned, n_cand - n_next - n_merged);
    std::swap(ws.cur, ws.next);
    ws.n_cur = n_next;
    RT_ENSURE(ws.n_cur > 0, "equalizer lost all branches");
  }

  RT_DCHECK_FINITE(ws.cur.front().metric);
  const auto best = std::min_element(
      ws.cur.begin(), ws.cur.begin() + static_cast<std::ptrdiff_t>(ws.n_cur),
      [](const Branch& a, const Branch& b) { return a.metric < b.metric; });
  out.symbols.assign(best->decisions.begin(), best->decisions.end());
  out.final_metric = best->metric;
  out.soft_bits.clear();
  if (soft_output) out.soft_bits.assign(best->llrs.begin(), best->llrs.end());
  RT_OBS_OBSERVE(kEqualizerResidual, out.final_metric);
}

}  // namespace rt::phy
