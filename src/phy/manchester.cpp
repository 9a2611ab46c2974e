// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/manchester.hpp"

#include <algorithm>
#include <array>

#include "common/contracts.hpp"

namespace densevlc::phy {
namespace {

// Row b holds the 16 chips of byte b, MSB-first: bit 1 = (HIGH, LOW),
// bit 0 = (LOW, HIGH).
constexpr std::array<std::array<Chip, 16>, 256> build_encode_lut() {
  std::array<std::array<Chip, 16>, 256> lut{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned i = 0; i < 8; ++i) {
      const bool bit = ((b >> (7 - i)) & 1u) != 0;
      lut[b][2 * i] = bit ? Chip::kHigh : Chip::kLow;      // 1: Ih -> Il
      lut[b][2 * i + 1] = bit ? Chip::kLow : Chip::kHigh;  // 0: Il -> Ih
    }
  }
  return lut;
}
constexpr auto kEncodeLut = build_encode_lut();

// Lenient decode of 8 chips (4 Manchester pairs) at once: the decoded
// nibble plus the number of coding violations (violating pairs resolve
// to bit 0).
struct HalfDecode {
  std::uint8_t nibble = 0;
  std::uint8_t violations = 0;
};

// Index = 8 chips packed MSB-first (chip i at bit 7-i), as pack8 builds.
constexpr std::array<HalfDecode, 256> build_decode_lut() {
  std::array<HalfDecode, 256> lut{};
  for (unsigned idx = 0; idx < 256; ++idx) {
    HalfDecode& half = lut[idx];
    for (unsigned p = 0; p < 4; ++p) {
      const unsigned pair = (idx >> (6 - 2 * p)) & 3u;
      const unsigned bit = pair == 2u ? 1u : 0u;  // (HIGH, LOW) is a 1
      if (pair == 0u || pair == 3u) ++half.violations;
      half.nibble = static_cast<std::uint8_t>((half.nibble << 1) | bit);
    }
  }
  return lut;
}
constexpr auto kDecodeLut = build_decode_lut();

// Packs 8 chips into a kDecodeLut index, MSB-first.
unsigned pack8(const Chip* chips) {
  unsigned idx = 0;
  for (unsigned i = 0; i < 8; ++i) {
    idx = (idx << 1) | static_cast<unsigned>(chips[i]);
  }
  return idx;
}

}  // namespace

void manchester_encode_bytes(std::span<const std::uint8_t> bytes,
                             std::span<Chip> out_chips) {
  DVLC_EXPECT(out_chips.size() == bytes.size() * 16,
              "manchester_encode_bytes: output must hold 16 chips per byte");
  Chip* out = out_chips.data();
  for (const std::uint8_t b : bytes) {
    out = std::copy(kEncodeLut[b].begin(), kEncodeLut[b].end(), out);
  }
}

std::size_t manchester_decode_bytes_lenient(std::span<const Chip> chips,
                                            std::span<std::uint8_t> out_bytes) {
  DVLC_EXPECT(chips.size() == out_bytes.size() * 16,
              "manchester_decode_bytes_lenient: need 16 chips per byte");
  std::size_t violations = 0;
  for (std::size_t i = 0; i < out_bytes.size(); ++i) {
    const HalfDecode hi = kDecodeLut[pack8(&chips[16 * i])];
    const HalfDecode lo = kDecodeLut[pack8(&chips[16 * i + 8])];
    out_bytes[i] = static_cast<std::uint8_t>((hi.nibble << 4) | lo.nibble);
    violations += hi.violations + lo.violations;
  }
  return violations;
}

}  // namespace densevlc::phy
