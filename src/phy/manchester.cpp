// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/manchester.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "phy/phy_kernels.hpp"

namespace densevlc::phy {
namespace {

// Row b holds the 8 MSB-first bit values of byte b (bytes_to_bits). The
// chip-level encode/decode LUTs moved to phy/phy_kernels.hpp so the SIMD
// kernels and this TU share one table.
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
  // Chip is a uint8-backed enum with values {0, 1}; the kernels work on
  // the raw byte stream.
  auto* dst = reinterpret_cast<std::uint8_t*>(out_chips.data());
  if (simd::use_vector_kernels()) {
    detail::manchester_encode_bytes_vec(bytes.data(), bytes.size(), dst);
  } else {
    detail::manchester_encode_bytes_kernel<simd::ScalarBackend>(
        bytes.data(), bytes.size(), dst);
  }
}

std::size_t manchester_decode_bytes_lenient(std::span<const Chip> chips,
                                            std::span<std::uint8_t> out_bytes) {
  DVLC_EXPECT(chips.size() == out_bytes.size() * 16,
              "manchester_decode_bytes_lenient: need 16 chips per byte");
  const auto* src = reinterpret_cast<const std::uint8_t*>(chips.data());
  if (simd::use_vector_kernels()) {
    return detail::manchester_decode_bytes_vec(src, out_bytes.size(),
                                               out_bytes.data());
  }
  return detail::manchester_decode_bytes_kernel<simd::ScalarBackend>(
      src, out_bytes.size(), out_bytes.data());
}

}  // namespace densevlc::phy
