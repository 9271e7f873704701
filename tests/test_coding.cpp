// Unit + property tests for GF(256), Reed-Solomon (errors and erasures),
// CRC, the K=7 convolutional code (hard + soft Viterbi), the block
// interleaver, and the coded-frame codec that composes them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "coding/coded_frame.h"
#include "coding/convolutional.h"
#include "coding/crc.h"
#include "coding/gf256.h"
#include "coding/interleaver.h"
#include "coding/reed_solomon.h"
#include "common/rng.h"

namespace rt::coding {
namespace {

TEST(Gf256, FieldAxiomsSpotChecks) {
  const auto& gf = Gf256::instance();
  // Multiplicative identity and zero.
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 0), 0);
  }
  // Every non-zero element has an inverse.
  for (int a = 1; a < 256; ++a) {
    const auto inv = gf.inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(Gf256, MulCommutativeAssociative) {
  const auto& gf = Gf256::instance();
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
    EXPECT_EQ(gf.mul(a, gf.mul(b, c)), gf.mul(gf.mul(a, b), c));
    // Distributivity over XOR addition.
    EXPECT_EQ(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
  }
}

TEST(Gf256, PowAlphaCyclic) {
  const auto& gf = Gf256::instance();
  EXPECT_EQ(gf.pow_alpha(0), 1);
  EXPECT_EQ(gf.pow_alpha(1), 2);
  EXPECT_EQ(gf.pow_alpha(255), 1);
  EXPECT_EQ(gf.pow_alpha(-1), gf.inv(2));
}

/// encode_block_into() into a fresh n-byte codeword.
std::vector<std::uint8_t> encode(const ReedSolomon& rs, std::span<const std::uint8_t> data) {
  ReedSolomon::Scratch scratch;
  std::vector<std::uint8_t> cw(rs.n());
  rs.encode_block_into(data, scratch, cw);
  return cw;
}

TEST(ReedSolomon, EncodeDecodeNoErrors) {
  ReedSolomon rs(255, 223);
  ReedSolomon::Scratch scratch;
  Rng rng(7);
  const auto data = rng.bytes(223);
  const auto cw = encode(rs, data);
  EXPECT_EQ(cw.size(), 255u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), cw.begin()));  // systematic
  std::vector<std::uint8_t> decoded(223);
  ASSERT_TRUE(rs.decode_block_into(cw, {}, scratch, decoded));
  EXPECT_EQ(decoded, data);
}

class RsErrorCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RsErrorCountTest, CorrectsUpToTErrors) {
  ReedSolomon rs(63, 47);  // t = 8
  ReedSolomon::Scratch scratch;
  Rng rng(11 + static_cast<std::uint64_t>(GetParam()));
  const auto data = rng.bytes(47);
  auto cw = encode(rs, data);
  // Inject `errors` distinct symbol errors.
  const int errors = GetParam();
  std::vector<std::size_t> pos;
  while (pos.size() < static_cast<std::size_t>(errors)) {
    const auto p = static_cast<std::size_t>(rng.uniform_int(0, 62));
    if (std::find(pos.begin(), pos.end(), p) == pos.end()) pos.push_back(p);
  }
  for (const auto p : pos) cw[p] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  std::vector<std::uint8_t> decoded(47);
  ASSERT_TRUE(rs.decode_block_into(cw, {}, scratch, decoded)) << errors << " errors";
  EXPECT_EQ(decoded, data);
}

INSTANTIATE_TEST_SUITE_P(UpToT, RsErrorCountTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ReedSolomon, DetectsUncorrectableBeyondT) {
  ReedSolomon rs(63, 55);  // t = 4
  ReedSolomon::Scratch scratch;
  Rng rng(13);
  const auto data = rng.bytes(55);
  const auto cw = encode(rs, data);
  // 12 errors: far beyond t; decoder must fail or miscorrect detectably.
  int failures = 0;
  for (int trial = 0; trial < 50; ++trial) {
    auto corrupted = cw;
    std::vector<std::size_t> pos;
    while (pos.size() < 12) {
      const auto p = static_cast<std::size_t>(rng.uniform_int(0, 62));
      if (std::find(pos.begin(), pos.end(), p) == pos.end()) pos.push_back(p);
    }
    for (const auto p : pos) corrupted[p] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    std::vector<std::uint8_t> decoded(55);
    if (!rs.decode_block_into(corrupted, {}, scratch, decoded) || decoded != data) ++failures;
  }
  // Virtually all trials must be flagged/failed (miscorrection is possible
  // but astronomically rare at this error weight).
  EXPECT_GE(failures, 49);
}

TEST(ReedSolomon, ParamValidation) {
  EXPECT_THROW(ReedSolomon(256, 100), PreconditionError);
  EXPECT_THROW(ReedSolomon(10, 10), PreconditionError);
  EXPECT_THROW(ReedSolomon(10, 0), PreconditionError);
  ReedSolomon rs(255, 223);
  EXPECT_EQ(rs.correctable_errors(), 16u);
  EXPECT_NEAR(rs.code_rate(), 223.0 / 255.0, 1e-12);
}

TEST(Crc, Crc16KnownVector) {
  const std::string s = "123456789";
  const std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(crc16_ccitt(data), 0x29B1);  // CRC-16/CCITT-FALSE check value
}

TEST(Crc, Crc32KnownVector) {
  const std::string s = "123456789";
  const std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(crc32(data), 0xCBF43926u);  // CRC-32/IEEE check value
}

TEST(Crc, DetectsSingleBitFlip) {
  Rng rng(23);
  const auto data = rng.bytes(128);
  const auto ref = crc16_ccitt(data);
  for (int trial = 0; trial < 64; ++trial) {
    auto mutated = data;
    const auto byte = static_cast<std::size_t>(rng.uniform_int(0, 127));
    const auto bit = static_cast<int>(rng.uniform_int(0, 7));
    mutated[byte] ^= static_cast<std::uint8_t>(1U << bit);
    EXPECT_NE(crc16_ccitt(mutated), ref);
  }
}

TEST(Crc, ZeroResidueOverMessagePlusCrc) {
  // CRC-16/CCITT-FALSE has xorout 0: crc(msg || crc_be) == 0, which is
  // the receiver-side integrity check the coded frame pipeline uses.
  Rng rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    auto msg = rng.bytes(1 + static_cast<std::size_t>(rng.uniform_int(0, 63)));
    const std::uint16_t c = crc16_ccitt(msg);
    msg.push_back(static_cast<std::uint8_t>(c >> 8));
    msg.push_back(static_cast<std::uint8_t>(c & 0xFF));
    EXPECT_EQ(crc16_ccitt(msg), 0);
  }
  // CRC-32/IEEE appends little-endian and leaves the fixed residue.
  for (int trial = 0; trial < 8; ++trial) {
    auto msg = rng.bytes(1 + static_cast<std::size_t>(rng.uniform_int(0, 63)));
    const std::uint32_t c = crc32(msg);
    for (int b = 0; b < 4; ++b) msg.push_back(static_cast<std::uint8_t>(c >> (8 * b)));
    EXPECT_EQ(crc32(msg), 0x2144DF1Cu);
  }
}

TEST(Crc, ExhaustiveSingleBitAndShortBurstDetection) {
  Rng rng(31);
  auto framed = rng.bytes(64);
  const std::uint16_t c = crc16_ccitt(framed);
  framed.push_back(static_cast<std::uint8_t>(c >> 8));
  framed.push_back(static_cast<std::uint8_t>(c & 0xFF));
  ASSERT_EQ(crc16_ccitt(framed), 0);
  // Every single-bit flip across message AND check bits breaks the residue.
  for (std::size_t byte = 0; byte < framed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      framed[byte] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_NE(crc16_ccitt(framed), 0) << "byte " << byte << " bit " << bit;
      framed[byte] ^= static_cast<std::uint8_t>(1U << bit);
    }
  }
  // A degree-16 CRC detects every burst of <= 16 bits: flip a random
  // nonzero pattern confined to two adjacent bytes.
  for (int trial = 0; trial < 200; ++trial) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(framed.size()) - 2));
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (a == 0 && b == 0) continue;
    framed[at] ^= a;
    framed[at + 1] ^= b;
    EXPECT_NE(crc16_ccitt(framed), 0);
    framed[at] ^= a;
    framed[at + 1] ^= b;
  }
}

// ---------------------------------------------------------------------------
// Reed-Solomon errors-and-erasures
// ---------------------------------------------------------------------------

TEST(ReedSolomonErasures, CorrectsErrorsPlusErasuresWithinBudget) {
  ReedSolomon rs(63, 47);  // parity 16: corrects 2e + f <= 16
  ReedSolomon::Scratch scratch;
  Rng rng(37);
  const auto data = rng.bytes(47);
  const auto cw = encode(rs, data);
  for (const auto& [errors, erasures] : std::vector<std::pair<int, int>>{
           {0, 1}, {0, 16}, {1, 14}, {2, 12}, {4, 8}, {6, 4}, {7, 2}, {8, 0}}) {
    auto corrupted = cw;
    std::vector<std::size_t> pos;  // distinct corruption positions
    while (pos.size() < static_cast<std::size_t>(errors + erasures)) {
      const auto p = static_cast<std::size_t>(rng.uniform_int(0, 62));
      if (std::find(pos.begin(), pos.end(), p) == pos.end()) pos.push_back(p);
    }
    for (const auto p : pos) corrupted[p] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    const std::vector<std::size_t> flagged(pos.begin(),
                                           pos.begin() + static_cast<std::ptrdiff_t>(erasures));
    std::vector<std::uint8_t> out(47);
    ASSERT_TRUE(rs.decode_block_into(corrupted, flagged, scratch, out))
        << errors << " errors + " << erasures << " erasures";
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()))
        << errors << " errors + " << erasures << " erasures";
  }
}

TEST(ReedSolomonErasures, ErasedPositionsNeedNotBeWrong) {
  // An erasure marks distrust, not a guaranteed error: flagging correct
  // symbols must not disturb the decode.
  ReedSolomon rs(63, 47);
  ReedSolomon::Scratch scratch;
  Rng rng(41);
  const auto data = rng.bytes(47);
  auto cw = encode(rs, data);
  cw[5] ^= 0x3C;  // one real error
  const std::vector<std::size_t> flagged = {10, 20, 30, 40};  // all actually clean
  std::vector<std::uint8_t> out(47);
  ASSERT_TRUE(rs.decode_block_into(cw, flagged, scratch, out));
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
}

TEST(ReedSolomonErasures, FailsBeyondBudgetAndKeepsReceivedPrefix) {
  ReedSolomon rs(63, 55);  // parity 8
  ReedSolomon::Scratch scratch;
  Rng rng(43);
  const auto data = rng.bytes(55);
  const auto cw = encode(rs, data);
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto corrupted = cw;
    // 6 unflagged errors + 4 erasures: 2e + f = 16 > 8.
    std::vector<std::size_t> pos;
    while (pos.size() < 10) {
      const auto p = static_cast<std::size_t>(rng.uniform_int(0, 62));
      if (std::find(pos.begin(), pos.end(), p) == pos.end()) pos.push_back(p);
    }
    for (const auto p : pos) corrupted[p] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    const std::vector<std::size_t> flagged(pos.begin(), pos.begin() + 4);
    std::vector<std::uint8_t> out(55);
    if (!rs.decode_block_into(corrupted, flagged, scratch, out)) {
      ++failures;
      // Failure hands back the received systematic prefix untouched.
      EXPECT_TRUE(std::equal(out.begin(), out.end(), corrupted.begin()));
    }
  }
  EXPECT_GE(failures, 29);  // miscorrection is astronomically rare
}

// ---------------------------------------------------------------------------
// Convolutional code (K=7, 133/171)
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> bits_of(const std::string& s) {
  std::vector<std::uint8_t> v;
  v.reserve(s.size());
  for (const char c : s) v.push_back(c == '1' ? 1 : 0);
  return v;
}

std::vector<std::uint8_t> cc_encoded(const ConvolutionalCode& cc,
                                     std::span<const std::uint8_t> msg) {
  std::vector<std::uint8_t> coded;
  cc.encode_into(msg, coded);
  return coded;
}

TEST(Convolutional, GoldenK7Vectors) {
  // Reference encodings of the industry-standard K=7 (133, 171) code,
  // flush included (g1 output first in each pair).
  const ConvolutionalCode cc;
  EXPECT_EQ(cc_encoded(cc, bits_of("1")), bits_of("11100011110111"));
  EXPECT_EQ(cc_encoded(cc, bits_of("10110100")), bits_of("1110111001010110010001110000"));
  EXPECT_EQ(cc_encoded(cc, bits_of("1111")), bits_of("11010110100110011011"));
}

TEST(Convolutional, IntoVariantsMatchAllocatingWrappers) {
  // One workspace and one set of output buffers reused across growing and
  // shrinking frames, dirtied first by a long noisy decode, must give the
  // same bits as a fresh workspace and fresh buffers on every frame.
  const ConvolutionalCode cc;
  Rng rng(47);
  ConvWorkspace ws;
  std::vector<std::uint8_t> coded(4000, 1);
  std::vector<std::uint8_t> decoded(4000, 1);
  std::vector<float> junk(2 * 600);
  for (auto& l : junk) l = static_cast<float>(rng.gaussian());
  cc.decode_soft_into(junk, ws, decoded);
  for (const std::size_t n : {257UL, 1UL, 64UL, 8UL, 300UL}) {
    std::vector<std::uint8_t> msg(n);
    rng.fill_bits(msg);
    cc.encode_into(msg, coded);
    EXPECT_EQ(coded, cc_encoded(cc, msg)) << n;

    ConvWorkspace fresh_ws;
    std::vector<std::uint8_t> fresh;
    cc.decode_into(coded, fresh_ws, fresh);
    cc.decode_into(coded, ws, decoded);
    EXPECT_EQ(decoded, fresh) << n;
    EXPECT_EQ(decoded, msg) << n;

    std::vector<float> llrs(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i)
      llrs[i] = static_cast<float>((coded[i] ? -1.0 : 1.0) + 0.8 * rng.gaussian());
    ConvWorkspace fresh_soft_ws;
    cc.decode_soft_into(llrs, fresh_soft_ws, fresh);
    cc.decode_soft_into(llrs, ws, decoded);
    EXPECT_EQ(decoded, fresh) << n;
  }
}

TEST(Convolutional, HardViterbiCorrectsScatteredErrors) {
  const ConvolutionalCode cc;
  ConvWorkspace ws;
  Rng rng(53);
  std::vector<std::uint8_t> msg(96);
  rng.fill_bits(msg);
  auto coded = cc_encoded(cc, msg);
  // d_free = 10: a few well-separated single-bit errors are correctable.
  for (const std::size_t p : {8UL, 60UL, 120UL, 180UL}) coded[p] ^= 1U;
  std::vector<std::uint8_t> decoded;
  cc.decode_into(coded, ws, decoded);
  EXPECT_EQ(decoded, msg);
}

TEST(Convolutional, SoftNeverWorseThanHardOnAwgn) {
  // BPSK over AWGN: y = (1 - 2c) + n, LLR = 2y / sigma^2. At every SNR the
  // soft decoder's bit errors must not exceed the hard-sliced decoder's --
  // the textbook ~2 dB soft-decision advantage, checked deterministically.
  const ConvolutionalCode cc;
  ConvWorkspace ws;
  Rng rng(59);
  std::vector<std::uint8_t> msg(512);
  rng.fill_bits(msg);
  const auto coded = cc_encoded(cc, msg);
  std::size_t soft_total = 0, hard_total = 0;
  for (const double snr_db : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    const double sigma = std::pow(10.0, -snr_db / 20.0);
    std::vector<float> llrs(coded.size());
    std::vector<std::uint8_t> sliced(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const double y = (coded[i] ? -1.0 : 1.0) + sigma * rng.gaussian();
      llrs[i] = static_cast<float>(2.0 * y / (sigma * sigma));
      sliced[i] = y < 0.0 ? 1U : 0U;
    }
    std::vector<std::uint8_t> soft_out, hard_out;
    cc.decode_soft_into(llrs, ws, soft_out);
    cc.decode_into(sliced, ws, hard_out);
    std::size_t soft_err = 0, hard_err = 0;
    for (std::size_t i = 0; i < msg.size(); ++i) {
      soft_err += soft_out[i] != msg[i] ? 1U : 0U;
      hard_err += hard_out[i] != msg[i] ? 1U : 0U;
    }
    EXPECT_LE(soft_err, hard_err) << "at " << snr_db << " dB";
    soft_total += soft_err;
    hard_total += hard_err;
  }
  // Across the sweep the advantage must be strict, not just a tie.
  EXPECT_LT(soft_total, hard_total);
}

TEST(Convolutional, ErasedBitsAreFree) {
  // Zero LLRs carry no metric: a handful of erased (not flipped) coded
  // bits must decode clean even where a hard slicer would have to guess.
  const ConvolutionalCode cc;
  ConvWorkspace ws;
  Rng rng(61);
  std::vector<std::uint8_t> msg(64);
  rng.fill_bits(msg);
  const auto coded = cc_encoded(cc, msg);
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) llrs[i] = coded[i] ? -4.0F : 4.0F;
  for (const std::size_t p : {3UL, 40UL, 41UL, 90UL, 127UL}) llrs[p] = 0.0F;
  std::vector<std::uint8_t> out;
  cc.decode_soft_into(llrs, ws, out);
  EXPECT_EQ(out, msg);
}

// ---------------------------------------------------------------------------
// Block interleaver
// ---------------------------------------------------------------------------

TEST(Interleaver, RoundTripAndIntoEquivalence) {
  // Output buffers reused (and dirty) across growing and shrinking blocks
  // give the same permutation as fresh ones, and deinterleave inverts it.
  Rng rng(67);
  std::vector<std::uint8_t> shuffled(500, 0xFF);
  std::vector<std::uint8_t> back(500, 0xFF);
  for (const auto& [rows, cols] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 39}, {1, 8}, {4, 4}, {8, 16}, {2, 3}}) {
    const BlockInterleaver il(rows, cols);
    std::vector<std::uint8_t> data(2 * rows * cols);
    rng.fill_bits(data);
    std::vector<std::uint8_t> fresh;
    il.interleave_into(std::span<const std::uint8_t>(data), fresh);
    il.interleave_into(std::span<const std::uint8_t>(data), shuffled);
    EXPECT_EQ(shuffled, fresh);
    if (rows > 1) {
      EXPECT_NE(shuffled, data);
    }
    std::vector<std::uint8_t> fresh_back;
    il.deinterleave_into(std::span<const std::uint8_t>(shuffled), fresh_back);
    il.deinterleave_into(std::span<const std::uint8_t>(shuffled), back);
    EXPECT_EQ(back, fresh_back);
    EXPECT_EQ(back, data);
  }
}

TEST(Interleaver, BurstSpreadsToOneErrorPerRow) {
  // A contiguous burst of length <= rows in the interleaved stream lands
  // at most once in every deinterleaved row of `cols` symbols -- the
  // property that lets a Reed-Solomon codeword absorb DFE error bursts.
  const std::size_t rows = 8, cols = 16;
  const BlockInterleaver il(rows, cols);
  EXPECT_EQ(il.burst_tolerance(), rows);
  std::vector<std::uint8_t> data(rows * cols, 0);
  std::vector<std::uint8_t> shuffled;
  std::vector<std::uint8_t> back;
  for (std::size_t start = 0; start + rows <= data.size(); start += 5) {
    il.interleave_into(std::span<const std::uint8_t>(data), shuffled);
    for (std::size_t i = 0; i < rows; ++i) shuffled[start + i] ^= 1U;
    il.deinterleave_into(std::span<const std::uint8_t>(shuffled), back);
    for (std::size_t r = 0; r < rows; ++r) {
      int hits = 0;
      for (std::size_t c = 0; c < cols; ++c) hits += back[r * cols + c] != 0 ? 1 : 0;
      EXPECT_LE(hits, 1) << "burst at " << start << ", row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Coded frame codec (whiten -> FEC -> interleave -> CRC and back)
// ---------------------------------------------------------------------------

std::vector<float> llrs_from_bits(std::span<const std::uint8_t> bits, float mag = 4.0F) {
  std::vector<float> llrs(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) llrs[i] = bits[i] ? -mag : mag;
  return llrs;
}

class CodedFrameKindTest : public ::testing::TestWithParam<CodeDescriptor> {};

TEST_P(CodedFrameKindTest, CleanRoundTripSoftAndHard) {
  CodedFrameConfig cfg;
  cfg.code = GetParam();
  const CodedFrameCodec codec(cfg);
  CodedFrameWorkspace ws;
  Rng rng(71);
  std::vector<std::uint8_t> payload(32 * 8);
  rng.fill_bits(payload);
  std::vector<std::uint8_t> tx;
  codec.encode_into(payload, ws, tx);
  ASSERT_EQ(tx.size(), codec.coded_bits(payload.size()));

  const auto llrs = llrs_from_bits(tx);
  const auto soft = codec.decode_soft_into(llrs, payload.size(), ws);
  EXPECT_TRUE(soft.decode_ok);
  EXPECT_TRUE(soft.crc_ok);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), soft.payload.begin()));

  const auto hard = codec.decode_hard_into(tx, payload.size(), ws);
  EXPECT_TRUE(hard.crc_ok);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), hard.payload.begin()));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CodedFrameKindTest,
                         ::testing::Values(CodeDescriptor::none(),
                                           CodeDescriptor::convolutional(7),
                                           CodeDescriptor::reed_solomon(63, 47)));

TEST(CodedFrame, CrcCatchesCorruptionOnUncodedFrames) {
  CodedFrameConfig cfg;  // kNone
  const CodedFrameCodec codec(cfg);
  CodedFrameWorkspace ws;
  Rng rng(73);
  std::vector<std::uint8_t> payload(16 * 8);
  rng.fill_bits(payload);
  std::vector<std::uint8_t> tx;
  codec.encode_into(payload, ws, tx);
  tx[17] ^= 1U;
  const auto res = codec.decode_hard_into(tx, payload.size(), ws);
  EXPECT_FALSE(res.crc_ok);
}

// A Reed-Solomon message longer than one codeword is a CodedFrameCodec
// frame: a 100-byte payload plus its CRC is 102 message bytes, ten
// RS(15, 11) codewords (t = 2 each), the last one zero-padded.
constexpr std::size_t kMultiBlockRsBlocks = 10;

CodedFrameConfig rs_15_11_frame() {
  CodedFrameConfig cfg;
  cfg.code = CodeDescriptor::reed_solomon(15, 11);
  return cfg;
}

struct MultiBlockRsFrame {
  CodedFrameCodec codec{rs_15_11_frame()};
  CodedFrameWorkspace ws;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> tx;

  MultiBlockRsFrame() : payload(100 * 8) {
    Rng rng(17);
    rng.fill_bits(payload);
    codec.encode_into(payload, ws, tx);
  }
};

TEST(ReedSolomon, MultiBlockMessageRoundTrip) {
  MultiBlockRsFrame f;
  ASSERT_EQ(f.tx.size(), 152u * 8);  // 150 codeword bytes + interleaver fill

  const auto clean_soft =
      f.codec.decode_soft_into(llrs_from_bits(f.tx), f.payload.size(), f.ws);
  EXPECT_TRUE(clean_soft.decode_ok && clean_soft.crc_ok);
  EXPECT_TRUE(std::equal(f.payload.begin(), f.payload.end(), clean_soft.payload.begin()));
  const auto clean_hard = f.codec.decode_hard_into(f.tx, f.payload.size(), f.ws);
  EXPECT_TRUE(clean_hard.decode_ok && clean_hard.crc_ok);
  EXPECT_TRUE(std::equal(f.payload.begin(), f.payload.end(), clean_hard.payload.begin()));
}

TEST(ReedSolomon, MultiBlockCorrectsScatteredErrors) {
  MultiBlockRsFrame f;
  ASSERT_EQ(f.tx.size(), 152u * 8);

  // One byte error in every codeword. The interleaver scatters codeword
  // bytes over the air, so map each on-air byte to its codeword position.
  const std::size_t air_bytes = f.tx.size() / 8;
  std::vector<std::size_t> position(air_bytes);
  for (std::size_t i = 0; i < air_bytes; ++i) position[i] = i;
  std::vector<std::size_t> on_air;
  const BlockInterleaver il(CodedFrameCodec::kInterleaverRows,
                            air_bytes / CodedFrameCodec::kInterleaverRows);
  il.interleave_into(std::span<const std::size_t>(position), on_air);
  auto corrupted = f.tx;
  for (std::size_t b = 0; b < kMultiBlockRsBlocks; ++b) {
    const std::size_t target = b * 15 + (b % 15);
    const auto at = std::find(on_air.begin(), on_air.end(), target) - on_air.begin();
    for (std::size_t j = 0; j < 8; ++j)
      corrupted[static_cast<std::size_t>(at) * 8 + j] ^=
          static_cast<std::uint8_t>((0xA5U >> (7 - j)) & 1U);
  }
  ASSERT_NE(corrupted, f.tx);

  const auto soft =
      f.codec.decode_soft_into(llrs_from_bits(corrupted), f.payload.size(), f.ws);
  EXPECT_TRUE(soft.decode_ok && soft.crc_ok);
  EXPECT_TRUE(std::equal(f.payload.begin(), f.payload.end(), soft.payload.begin()));
  const auto hard = f.codec.decode_hard_into(corrupted, f.payload.size(), f.ws);
  EXPECT_TRUE(hard.decode_ok && hard.crc_ok);
  EXPECT_TRUE(std::equal(f.payload.begin(), f.payload.end(), hard.payload.begin()));
}

TEST(CodedFrame, GmdErasureRetriesRescueWeakBytes) {
  // Plain errors-only RS fails at t+2 byte errors, but when the wrong
  // bytes announce themselves with tiny LLR magnitudes the GMD retry
  // ladder erases them and the decode lands -- the LLR-driven erasure
  // marking the soft path adds over hard decoding.
  CodedFrameConfig cfg;
  cfg.code = CodeDescriptor::reed_solomon(63, 47);  // t = 8
  const CodedFrameCodec codec(cfg);
  CodedFrameWorkspace ws;
  Rng rng(79);
  std::vector<std::uint8_t> payload(32 * 8);
  rng.fill_bits(payload);
  std::vector<std::uint8_t> tx;
  codec.encode_into(payload, ws, tx);

  auto llrs = llrs_from_bits(tx);
  // Corrupt 10 interleaved bytes (> t) but mark every bit of them weak.
  std::vector<std::size_t> bytes;
  while (bytes.size() < 10) {
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(tx.size() / 8) - 1));
    if (std::find(bytes.begin(), bytes.end(), b) == bytes.end()) bytes.push_back(b);
  }
  for (const auto b : bytes) {
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t i = b * 8 + j;
      // First bit of each chosen byte always flips, so every chosen byte
      // really is a symbol error; the rest flip at random.
      const bool flip = j == 0 || rng.uniform_int(0, 1) == 1;
      const std::uint8_t bit = (tx[i] ^ (flip ? 1U : 0U)) & 1U;
      llrs[i] = bit ? -0.01F : 0.01F;
    }
  }

  // Hard decoding of the same sliced stream must fail: 10 byte errors
  // exceed the errors-only budget and there is no erasure ladder.
  std::vector<std::uint8_t> sliced(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) sliced[i] = std::signbit(llrs[i]) ? 1U : 0U;
  const auto hard = codec.decode_hard_into(sliced, payload.size(), ws);
  EXPECT_FALSE(hard.crc_ok);

  const auto soft = codec.decode_soft_into(llrs, payload.size(), ws);
  EXPECT_TRUE(soft.crc_ok);
  EXPECT_GT(soft.erasures_used, 0u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), soft.payload.begin()));
}

TEST(CodedFrame, WorkspaceReuseIsDeterministic) {
  // One workspace across frames of different codes and sizes: results
  // must not depend on what the buffers held before.
  CodedFrameConfig cc_cfg;
  cc_cfg.code = CodeDescriptor::convolutional(7);
  CodedFrameConfig rs_cfg;
  rs_cfg.code = CodeDescriptor::reed_solomon(63, 47);
  const CodedFrameCodec cc(cc_cfg);
  const CodedFrameCodec rs(rs_cfg);
  CodedFrameWorkspace shared, fresh;
  Rng rng(83);
  for (int round = 0; round < 4; ++round) {
    const std::size_t n = (round % 2 == 0 ? 16 : 48) * 8;
    std::vector<std::uint8_t> payload(n);
    rng.fill_bits(payload);
    const CodedFrameCodec& codec = round % 2 == 0 ? cc : rs;
    std::vector<std::uint8_t> tx_shared, tx_fresh;
    codec.encode_into(payload, shared, tx_shared);
    CodedFrameWorkspace scratch;
    codec.encode_into(payload, scratch, tx_fresh);
    EXPECT_EQ(tx_shared, tx_fresh);
    const auto llrs = llrs_from_bits(tx_shared);
    const auto a = codec.decode_soft_into(llrs, payload.size(), shared);
    const auto b = codec.decode_soft_into(llrs, payload.size(), scratch);
    EXPECT_EQ(a.crc_ok, b.crc_ok);
    EXPECT_TRUE(std::equal(a.payload.begin(), a.payload.end(), b.payload.begin()));
  }
}

}  // namespace
}  // namespace rt::coding
