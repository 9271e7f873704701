// Unit tests of the benchmark's statistics helpers (harness/stats.h).
// Run: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/stats.h"

using perfbench::FrameMatch;
using perfbench::match_frames;
using perfbench::median;
using perfbench::smoothed_rate;
using perfbench::tail_percentile;
using perfbench::windowed_rate;

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, PicksHighestWithTenBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
  const auto t100 = tail_percentile(one_to(100));
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10U);
  EXPECT_EQ(t100.samples, 100U);

  // 99 samples: p90 is rank 90, 9 beyond -> falls to p50.
  const auto t99 = tail_percentile(one_to(99));
  EXPECT_DOUBLE_EQ(t99.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t99.value, 50.0);
  EXPECT_EQ(t99.beyond, 49U);

  // 1000 samples: p99 leaves 10 beyond.
  const auto t1000 = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t1000.value, 990.0);
  EXPECT_EQ(t1000.beyond, 10U);
}

TEST(TailPercentile, TooFewSamplesFallsBackToMedianRank) {
  const auto t = tail_percentile(one_to(12));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 6.0);
  EXPECT_EQ(t.beyond, 6U);
  EXPECT_EQ(tail_percentile({}).samples, 0U);
}

TEST(WindowedRate, MedianOfWindowRates) {
  // Windows of 2: rates 2/(0.5+0.5)=2, 2/(0.25+0.25)=4, 2/(1+1)=1 -> 2.
  const std::vector<double> s = {0.5, 0.5, 0.25, 0.25, 1.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(windowed_rate(s, {}, 2), 2.0);
  // Work-weighted: 10 units per item in the first window only.
  const std::vector<double> w = {10.0, 10.0};
  EXPECT_DOUBLE_EQ(windowed_rate(std::vector<double>{1.0, 1.0}, w, 2), 10.0);
  // A single short window still counts.
  EXPECT_DOUBLE_EQ(windowed_rate(std::vector<double>{0.5}, {}, 4), 2.0);
}

TEST(SmoothedRate, NeverZeroAndCloseToRatio) {
  EXPECT_DOUBLE_EQ(smoothed_rate(0, 99), 0.005);
  EXPECT_GT(smoothed_rate(0, 1000000), 0.0);
  EXPECT_NEAR(smoothed_rate(250, 1000), 0.25, 0.001);
}

TEST(MatchFrames, ByStartSampleNotArrivalOrder) {
  const std::vector<std::uint64_t> truth = {1000, 5000, 9000};
  // The second true frame was missed; an extra frame sits at 7000.
  const std::vector<std::uint64_t> emitted = {1002, 7000, 8999};
  const FrameMatch m = match_frames(emitted, truth, 10);
  EXPECT_EQ(m.matched, 2U);
  EXPECT_EQ(m.missed, 1U);
  EXPECT_EQ(m.false_frames, 1U);
  EXPECT_EQ(m.truth_of, (std::vector<std::ptrdiff_t>{0, -1, 2}));
}

TEST(MatchFrames, FalseFrameOneFrameLengthBeforeATrueOne) {
  // A false frame decoded one frame length (9440 samples) ahead of a true
  // frame: in arrival order it would be paired with that true frame.
  const std::uint64_t frame_len = 9440;
  const std::vector<std::uint64_t> truth = {20000, 40000};
  const std::vector<std::uint64_t> emitted = {20000 - frame_len, 20001, 40000};
  const FrameMatch m = match_frames(emitted, truth, 10);
  EXPECT_EQ(m.false_frames, 1U);
  EXPECT_EQ(m.matched, 2U);
  EXPECT_EQ(m.missed, 0U);
  EXPECT_EQ(m.truth_of, (std::vector<std::ptrdiff_t>{-1, 0, 1}));

  // If the receiver was still busy with the false frame and never emitted
  // the true one, that true frame counts as missed.
  const std::vector<std::uint64_t> busy = {20000 - frame_len, 40000};
  const FrameMatch b = match_frames(busy, truth, 10);
  EXPECT_EQ(b.false_frames, 1U);
  EXPECT_EQ(b.missed, 1U);
  EXPECT_EQ(b.truth_of, (std::vector<std::ptrdiff_t>{-1, 1}));
}

TEST(MatchFrames, EachTrueFrameMatchesOnce) {
  const std::vector<std::uint64_t> truth = {1000};
  const std::vector<std::uint64_t> emitted = {998, 1001};
  const FrameMatch m = match_frames(emitted, truth, 5);
  EXPECT_EQ(m.matched, 1U);
  EXPECT_EQ(m.false_frames, 1U);
  EXPECT_EQ(m.truth_of, (std::vector<std::ptrdiff_t>{0, -1}));
}
