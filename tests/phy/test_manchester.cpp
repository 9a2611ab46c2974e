// Tests for Manchester coding and bit/byte packing.
#include "phy/manchester.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace densevlc::phy {
namespace {

TEST(Manchester, PaperConvention) {
  // 0 encodes Il -> Ih (LOW then HIGH); 1 encodes Ih -> Il.
  const std::vector<std::uint8_t> bits{0, 1};
  const auto chips = manchester_encode(bits);
  ASSERT_EQ(chips.size(), 4u);
  EXPECT_EQ(chips[0], Chip::kLow);
  EXPECT_EQ(chips[1], Chip::kHigh);
  EXPECT_EQ(chips[2], Chip::kHigh);
  EXPECT_EQ(chips[3], Chip::kLow);
}

TEST(Manchester, RoundTrip) {
  Rng rng{42};
  std::vector<std::uint8_t> bits(1000);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  const auto chips = manchester_encode(bits);
  const auto decoded = manchester_decode_lenient(chips);
  EXPECT_EQ(decoded.violations, 0u);
  EXPECT_EQ(decoded.bits, bits);
}

TEST(Manchester, DcBalanceExact) {
  // Any bit stream yields exactly 50% HIGH chips — the property that
  // keeps LED brightness constant.
  Rng rng{43};
  std::vector<std::uint8_t> bits(501);
  for (auto& b : bits) b = rng.bernoulli(0.8) ? 1 : 0;  // biased bits!
  const auto chips = manchester_encode(bits);
  std::size_t high = 0;
  for (Chip c : chips) high += c == Chip::kHigh ? 1 : 0;
  EXPECT_EQ(high * 2, chips.size());
}

TEST(Manchester, LenientDecodeCountsViolations) {
  const std::vector<Chip> chips{Chip::kLow,  Chip::kHigh,   // valid 0
                                Chip::kHigh, Chip::kHigh,   // violation
                                Chip::kHigh, Chip::kLow};   // valid 1
  const auto res = manchester_decode_lenient(chips);
  ASSERT_EQ(res.bits.size(), 3u);
  EXPECT_EQ(res.violations, 1u);
  EXPECT_EQ(res.bits[0], 0);
  EXPECT_EQ(res.bits[2], 1);
}

TEST(Manchester, LenientDecodeOddTailCounts) {
  const std::vector<Chip> chips{Chip::kLow, Chip::kHigh, Chip::kLow};
  const auto res = manchester_decode_lenient(chips);
  EXPECT_EQ(res.bits.size(), 1u);
  EXPECT_EQ(res.violations, 1u);
}

TEST(Packing, BytesToBitsMsbFirst) {
  const std::vector<std::uint8_t> bytes{0xA5};
  const auto bits = bytes_to_bits(bytes);
  const std::vector<std::uint8_t> expected{1, 0, 1, 0, 0, 1, 0, 1};
  EXPECT_EQ(bits, expected);
}

TEST(Packing, BitsToBytesRoundTrip) {
  Rng rng{44};
  std::vector<std::uint8_t> bytes(256);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const auto packed = bits_to_bytes(bytes_to_bits(bytes));
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(*packed, bytes);
}

TEST(Packing, RaggedBitsRejected) {
  const std::vector<std::uint8_t> bits(9, 0);
  EXPECT_FALSE(bits_to_bytes(bits).has_value());
}

TEST(Packing, EmptyInputsAreEmpty) {
  EXPECT_TRUE(bytes_to_bits({}).empty());
  const auto packed = bits_to_bytes({});
  ASSERT_TRUE(packed.has_value());
  EXPECT_TRUE(packed->empty());
}

// The LUT-driven byte paths (manchester_encode_bytes, the fused lenient
// decode, and the bytes_to_bits/bits_to_bytes pair) must agree with a
// first-principles bit loop on every one of the 256 possible byte
// values. This pins each table row, not just the rows random payloads
// happen to exercise.
TEST(Packing, All256ByteValuesMatchScalarBitLoops) {
  for (int value = 0; value < 256; ++value) {
    const std::vector<std::uint8_t> byte{static_cast<std::uint8_t>(value)};

    // Scalar reference: unpack MSB-first, then one transition per bit.
    std::vector<std::uint8_t> ref_bits(8);
    for (int i = 0; i < 8; ++i) {
      ref_bits[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((value >> (7 - i)) & 1);
    }
    std::vector<Chip> ref_chips;
    for (const auto bit : ref_bits) {
      ref_chips.push_back(bit ? Chip::kHigh : Chip::kLow);
      ref_chips.push_back(bit ? Chip::kLow : Chip::kHigh);
    }

    EXPECT_EQ(bytes_to_bits(byte), ref_bits) << "value=" << value;
    EXPECT_EQ(manchester_encode(ref_bits), ref_chips) << "value=" << value;

    std::vector<Chip> lut_chips(16);
    manchester_encode_bytes(byte, lut_chips);
    EXPECT_EQ(lut_chips, ref_chips) << "value=" << value;

    std::vector<std::uint8_t> decoded(1);
    EXPECT_EQ(manchester_decode_bytes_lenient(ref_chips, decoded), 0u);
    EXPECT_EQ(decoded, byte) << "value=" << value;

    const auto packed = bits_to_bytes(ref_bits);
    ASSERT_TRUE(packed.has_value());
    EXPECT_EQ(*packed, byte) << "value=" << value;
  }
}

}  // namespace
}  // namespace densevlc::phy
