// Block interleaver.
//
// RetroTurbo error events are bursty: one wrong DFE decision corrupts
// several adjacent bits (error propagation, section 4.3.2), and a deep
// mobility fade hits a contiguous stretch. A rows x cols block
// interleaver spreads such bursts across Reed-Solomon codewords so the
// per-block error count stays inside the correction radius.
#pragma once

#include <span>
#include <vector>

#include "common/error.h"

namespace rt::coding {

class BlockInterleaver {
 public:
  BlockInterleaver(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
    RT_ENSURE(rows >= 1 && cols >= 1, "dimensions must be positive");
  }

  [[nodiscard]] std::size_t block_size() const { return rows_ * cols_; }

  /// Writes row-wise, reads column-wise into a caller-owned buffer
  /// (resized to in.size(); a warm buffer never reallocates). Input must
  /// be a whole number of blocks and must not alias `out`.
  template <typename T>
  void interleave_into(std::span<const T> in, std::vector<T>& out) const {
    RT_ENSURE(in.size() % block_size() == 0, "input must be a whole number of blocks");
    out.resize(in.size());
    for (std::size_t b = 0; b < in.size(); b += block_size()) {
      std::size_t k = 0;
      for (std::size_t c = 0; c < cols_; ++c)
        for (std::size_t r = 0; r < rows_; ++r) out[b + k++] = in[b + r * cols_ + c];
    }
  }

  /// Inverse permutation of interleave_into(); same buffer contract.
  template <typename T>
  void deinterleave_into(std::span<const T> in, std::vector<T>& out) const {
    RT_ENSURE(in.size() % block_size() == 0, "input must be a whole number of blocks");
    out.resize(in.size());
    for (std::size_t b = 0; b < in.size(); b += block_size()) {
      std::size_t k = 0;
      for (std::size_t c = 0; c < cols_; ++c)
        for (std::size_t r = 0; r < rows_; ++r) out[b + r * cols_ + c] = in[b + k++];
    }
  }

  /// Longest burst (in symbols) guaranteed to be spread so that no more
  /// than one corrupted symbol lands in any row.
  [[nodiscard]] std::size_t burst_tolerance() const { return rows_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
};

}  // namespace rt::coding
