// Unit tests for src/common: error handling, narrowing, RNG, units, bit IO.
#include <gtest/gtest.h>

#include "common/bitio.h"
#include "common/error.h"
#include "common/narrow.h"
#include "common/rng.h"
#include "common/units.h"

namespace rt {
namespace {

TEST(Error, EnsurePassesOnTrue) { EXPECT_NO_THROW(RT_ENSURE(1 + 1 == 2)); }

TEST(Error, EnsureThrowsWithExpressionText) {
  try {
    RT_ENSURE(2 > 3, "two is not bigger");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("2 > 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("two is not bigger"), std::string::npos);
  }
}

TEST(Narrow, RoundTripOk) {
  EXPECT_EQ(narrow<std::uint8_t>(200), 200);
  EXPECT_EQ(narrow<int>(123.0), 123);
}

TEST(Narrow, LossyThrows) {
  EXPECT_THROW(static_cast<void>(narrow<std::uint8_t>(300)), RuntimeError);
  EXPECT_THROW(static_cast<void>(narrow<std::uint8_t>(-1)), RuntimeError);
  EXPECT_THROW(static_cast<void>(narrow<int>(1.5)), RuntimeError);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkIsIndependentStream) {
  Rng a(7);
  Rng child = a.fork();
  // Child stream differs from continuing the parent.
  Rng b(7);
  (void)b.fork();
  EXPECT_NE(child.uniform(), a.uniform());
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(1);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, BitsAreBalanced) {
  Rng rng(3);
  const auto bits = rng.bits(10000);
  std::size_t ones = 0;
  for (const auto b : bits) ones += b;
  EXPECT_NEAR(static_cast<double>(ones), 5000.0, 300.0);
}

TEST(Units, DbRoundTrip) {
  EXPECT_NEAR(from_db(to_db(123.0)), 123.0, 1e-9);
  EXPECT_DOUBLE_EQ(to_db(10.0), 10.0);
  EXPECT_DOUBLE_EQ(to_db(100.0), 20.0);
  EXPECT_DOUBLE_EQ(amplitude_to_db(10.0), 20.0);
}

TEST(Units, AngleRoundTrip) {
  EXPECT_NEAR(rad_to_deg(deg_to_rad(47.5)), 47.5, 1e-12);
  EXPECT_NEAR(deg_to_rad(180.0), kPi, 1e-12);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(ms(4.0), 0.004);
  EXPECT_DOUBLE_EQ(us(500.0), 0.0005);
  EXPECT_DOUBLE_EQ(khz(455.0), 455000.0);
}

TEST(BitIo, BytesToBitsMsbFirst) {
  const std::vector<std::uint8_t> bytes = {0b10110001};
  std::vector<std::uint8_t> bits(8);
  unpack_bits(bytes, bits);
  const std::vector<std::uint8_t> expect = {1, 0, 1, 1, 0, 0, 0, 1};
  EXPECT_EQ(bits, expect);
  std::vector<std::uint8_t> packed(1);
  pack_bits(expect, packed);
  EXPECT_EQ(packed, bytes);
}

TEST(BitIo, RoundTrip) {
  Rng rng(9);
  const auto bytes = rng.bytes(257);
  std::vector<std::uint8_t> bits(bytes.size() * 8);
  unpack_bits(bytes, bits);
  std::vector<std::uint8_t> packed(bytes.size());
  pack_bits(bits, packed);
  EXPECT_EQ(packed, bytes);
}

TEST(BitIo, BitsToBytesRejectsPartialByte) {
  const std::vector<std::uint8_t> bits(7, 1);
  std::vector<std::uint8_t> bytes(1);
  EXPECT_THROW(pack_bits(bits, bytes), PreconditionError);
  std::vector<std::uint8_t> too_few(7);
  EXPECT_THROW(unpack_bits(bytes, too_few), PreconditionError);
}

TEST(BitIo, HammingDistance) {
  const std::vector<std::uint8_t> a = {0, 1, 1, 0};
  const std::vector<std::uint8_t> b = {0, 0, 1, 1};
  EXPECT_EQ(hamming_distance(a, b), 2u);
  EXPECT_THROW((void)hamming_distance(a, std::vector<std::uint8_t>{1}), PreconditionError);
}

}  // namespace
}  // namespace rt
