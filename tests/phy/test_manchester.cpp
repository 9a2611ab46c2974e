// Tests for the byte-at-a-time Manchester codec.
#include "phy/manchester.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace densevlc::phy {
namespace {

std::vector<Chip> encode(const std::vector<std::uint8_t>& bytes) {
  std::vector<Chip> chips(16 * bytes.size());
  manchester_encode_bytes(bytes, chips);
  return chips;
}

TEST(Manchester, PaperConvention) {
  // 0 encodes Il -> Ih (LOW then HIGH); 1 encodes Ih -> Il. 0x40 is the
  // bits 0, 1, then six 0s, MSB first.
  const auto chips = encode({0x40});
  ASSERT_EQ(chips.size(), 16u);
  EXPECT_EQ(chips[0], Chip::kLow);
  EXPECT_EQ(chips[1], Chip::kHigh);
  EXPECT_EQ(chips[2], Chip::kHigh);
  EXPECT_EQ(chips[3], Chip::kLow);
  for (std::size_t i = 4; i < chips.size(); i += 2) {
    EXPECT_EQ(chips[i], Chip::kLow) << "chip " << i;
    EXPECT_EQ(chips[i + 1], Chip::kHigh) << "chip " << i + 1;
  }
}

TEST(Manchester, RoundTrip) {
  Rng rng{42};
  std::vector<std::uint8_t> bytes(125);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const auto chips = encode(bytes);
  std::vector<std::uint8_t> decoded(bytes.size());
  EXPECT_EQ(manchester_decode_bytes_lenient(chips, decoded), 0u);
  EXPECT_EQ(decoded, bytes);
}

TEST(Manchester, DcBalanceExact) {
  // Any bit stream yields exactly 50% HIGH chips — the property that
  // keeps LED brightness constant.
  Rng rng{43};
  std::vector<std::uint8_t> bytes(63);
  for (auto& b : bytes) {
    for (int i = 0; i < 8; ++i) {  // biased bits!
      b = static_cast<std::uint8_t>((b << 1) | (rng.bernoulli(0.8) ? 1 : 0));
    }
  }
  const auto chips = encode(bytes);
  std::size_t high = 0;
  for (Chip c : chips) high += c == Chip::kHigh ? 1 : 0;
  EXPECT_EQ(high * 2, chips.size());
}

TEST(Manchester, LenientDecodeCountsViolations) {
  // 0x7F opens with a valid 0 then a valid 1; forcing the second pair to
  // HH makes it a violation, which decodes as 0 and is counted once.
  auto chips = encode({0x7F});
  chips[2] = Chip::kHigh;
  chips[3] = Chip::kHigh;
  std::vector<std::uint8_t> decoded(1);
  EXPECT_EQ(manchester_decode_bytes_lenient(chips, decoded), 1u);
  EXPECT_EQ(decoded[0], 0x3F);
}

// The LUT-driven byte paths (manchester_encode_bytes and the fused
// lenient decode) must agree with a first-principles bit loop on every
// one of the 256 possible byte values. This pins each table row, not
// just the rows random payloads happen to exercise.
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

    std::vector<Chip> lut_chips(16);
    manchester_encode_bytes(byte, lut_chips);
    EXPECT_EQ(lut_chips, ref_chips) << "value=" << value;

    std::vector<std::uint8_t> decoded(1);
    EXPECT_EQ(manchester_decode_bytes_lenient(ref_chips, decoded), 0u);
    EXPECT_EQ(decoded, byte) << "value=" << value;
  }
}

}  // namespace
}  // namespace densevlc::phy
