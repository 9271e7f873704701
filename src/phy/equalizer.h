// K-branch decision-feedback equalizer for the DSM-PQAM ISI channel
// (paper section 4.3.2, Fig. 10).
//
// DSM deliberately creates ISI spanning L symbols. The DFE keeps K
// candidate decision prefixes ("branches"); per slot it expands every
// branch by all P constellation points, scores each candidate on the first
// T-window of the residual against the fingerprint templates, keeps the K
// best, and subtracts the decided pulse (full W span) from each survivor's
// residual. With state merging enabled and K >= the number of distinct
// trellis states this becomes the Viterbi detector the paper cites as the
// optimal-but-costly reference; K = 1 is the naive DFE of Fig. 17a.
//
// Candidate order. Candidate `ci = (bi * levels + li) * q_levels + lq`
// extends live branch `bi` by I level `li` and Q level `lq` (q_levels = 1
// and Q level -1 without the Q channel): branch-major, then the
// Constellation::alphabet() order. Scores are written at `ci`, so each
// branch's row is the layout Constellation::unmap_soft_into() reads. A
// branch's I terms are subtracted once per I level and only the Q terms
// are scored per candidate; both kernels subtract the terms one at a time
// in list order, so every score is the double a single pass over all of
// the candidate's terms gives.
//
// Survivors. The candidates sit in a min-heap under the total order
// (metric, ci) and are popped until K survivors are built (with state
// merging, popping continues past merged twins until K survive or the
// heap is empty). Exact metric ties therefore resolve to the lower
// enumeration index: the earlier branch, then the lower I level, then the
// lower Q level.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.h"
#include "phy/constellation.h"
#include "phy/params.h"
#include "phy/pulse_model.h"
#include "signal/waveform.h"

namespace rt::phy {

struct EqualizerResult {
  std::vector<SymbolLevels> symbols;
  double final_metric = 0.0;  ///< cumulative squared error of the winner
  /// Per-bit LLRs (positive = bit 0) along the winning path, one
  /// bits_per_symbol() group per decided slot; empty unless the soft
  /// output was requested.
  std::vector<float> soft_bits;
};

/// Reusable branch pools and scratch for DfeEqualizer::equalize_into().
/// Branches live in two pools (current generation / survivors) whose inner
/// vectors keep their capacity across slots and packets, so the branch
/// expansion loop stops allocating once it has seen the deepest packet.
struct EqualizerWorkspace {
  struct Branch {
    double metric = 0.0;
    std::vector<SymbolLevels> decisions;
    std::vector<Complex> residual;     ///< upcoming window [nT, nT + W)
    std::vector<unsigned> pixel_hist;  ///< per-pixel V-bit firing history
    std::vector<float> llrs;           ///< per-bit LLRs along this prefix (soft mode)
  };
  /// One survivor-heap entry: a candidate's cumulative metric and its
  /// enumeration index (the parent branch and symbol decode from it).
  struct Scored {
    double metric;
    std::size_t index;
  };
  std::vector<Branch> cur;   ///< live branches (first n_cur entries)
  std::vector<Branch> next;  ///< survivor pool being built
  std::size_t n_cur = 0;
  std::vector<double> scores;          ///< candidate metrics in enumeration order
  std::vector<Scored> heap;            ///< survivor min-heap over (metric, index)
  std::vector<Complex> partial;        ///< residual window minus one I level's terms
  std::vector<kernels::CTerm> q_terms; ///< one branch's Q terms, bits_per_axis slots per level
  std::vector<std::size_t> q_counts;   ///< live entries of each Q level's q_terms slots
  std::vector<kernels::CTerm> terms;       ///< I terms / decided-symbol feedback terms
  std::vector<kernels::CTerm> tail_terms;  ///< `terms` re-based at the feedback offset
  std::vector<char> seen_keys;         ///< flat fixed-stride merge keys
};

class DfeEqualizer {
 public:
  DfeEqualizer(const PhyParams& params, const PulseBank& bank);

  /// Equalizes `n_slots` payload slots from `rx` starting at sample index
  /// `payload_begin` and writes the winning decision sequence into `out`,
  /// reusing the workspace pools. `initial_histories` holds the V-bit
  /// firing history of each *pixel* (module-major: I modules 0..L-1 then
  /// Q modules, and within a module the weight pixels MSB-first) at the
  /// first payload slot. With `soft_output`, each surviving branch
  /// additionally carries max-log-MAP per-bit LLRs (min-distance margins
  /// over this slot's candidate scores, conditioned on the branch's own
  /// decision prefix), and the winner's LLR stream is exported in
  /// `out.soft_bits`.
  void equalize_into(const sig::IqWaveform& rx, std::size_t payload_begin, int n_slots,
                     std::span<const unsigned> initial_histories, EqualizerWorkspace& ws,
                     EqualizerResult& out, bool soft_output = false) const;

 private:
  const PhyParams p_;
  const PulseBank& bank_;
  Constellation constellation_;
};

}  // namespace rt::phy
