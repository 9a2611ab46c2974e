// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/manchester.hpp"

#include <algorithm>
#include <array>

#include "common/contracts.hpp"

namespace densevlc::phy {
namespace {

// Row b holds the 8 MSB-first bit values of byte b (bytes_to_bits).
constexpr std::array<std::array<std::uint8_t, 8>, 256> build_unpack_lut() {
  std::array<std::array<std::uint8_t, 8>, 256> lut{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned i = 0; i < 8; ++i) {
      lut[b][i] = static_cast<std::uint8_t>((b >> (7 - i)) & 1u);
    }
  }
  return lut;
}
constexpr auto kUnpackLut = build_unpack_lut();

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
// to bit 0, matching manchester_decode_lenient).
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

std::vector<Chip> manchester_encode(std::span<const std::uint8_t> bits) {
  std::vector<Chip> chips(bits.size() * 2);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool one = bits[i] != 0;
    chips[2 * i] = one ? Chip::kHigh : Chip::kLow;      // 1: Ih -> Il
    chips[2 * i + 1] = one ? Chip::kLow : Chip::kHigh;  // 0: Il -> Ih
  }
  return chips;
}

LenientDecode manchester_decode_lenient(std::span<const Chip> chips) {
  LenientDecode out{std::vector<std::uint8_t>(chips.size() / 2)};
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < chips.size(); i += 2) {
    if (chips[i] == Chip::kLow && chips[i + 1] == Chip::kHigh) {
      out.bits[n++] = 0;
    } else if (chips[i] == Chip::kHigh && chips[i + 1] == Chip::kLow) {
      out.bits[n++] = 1;
    } else {
      out.bits[n++] = 0;
      ++out.violations;
    }
  }
  if (chips.size() % 2 != 0) ++out.violations;
  return out;
}

std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> bits(bytes.size() * 8);
  std::uint8_t* dst = bits.data();
  for (std::uint8_t b : bytes) {
    const auto& row = kUnpackLut[b];
    std::copy_n(row.begin(), 8, dst);
    dst += 8;
  }
  return bits;
}

// Packing directly assembles the byte that indexes the encode/unpack
// LUTs, so this direction needs no table; the all-256-value parity test
// in tests/phy pins it to the LUTs.
std::optional<std::vector<std::uint8_t>> bits_to_bytes(
    std::span<const std::uint8_t> bits) {
  if (bits.size() % 8 != 0) return std::nullopt;
  std::vector<std::uint8_t> bytes(bits.size() / 8);
  for (std::size_t i = 0; i < bits.size(); i += 8) {
    std::uint8_t b = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      b = static_cast<std::uint8_t>((b << 1) | (bits[i + j] & 1));
    }
    bytes[i / 8] = b;
  }
  return bytes;
}

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
