// Manchester line coding (paper Sec. 3.3).
//
// DenseVLC keeps LED brightness constant across operating modes by
// Manchester-coding the OOK stream: every data bit becomes a transition,
// so HIGH and LOW chips are equiprobable regardless of payload. Paper
// convention: Il -> Ih (LOW then HIGH) encodes binary 0, Ih -> Il (HIGH
// then LOW) encodes binary 1.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace densevlc::phy {

/// A transmitted chip (half a Manchester symbol).
enum class Chip : std::uint8_t {
  kLow = 0,   ///< current Il = Ib - Isw/2
  kHigh = 1,  ///< current Ih = Ib + Isw/2
};

/// Encodes bits into chips; output has exactly 2 chips per bit.
std::vector<Chip> manchester_encode(std::span<const std::uint8_t> bits);

/// Decodes chips back into bits. A chip pair without a transition (LL /
/// HH: noise or loss of symbol lock) is a coding violation; it resolves
/// to a best guess (0) and is counted, as is an odd trailing chip. The
/// demodulator decodes this way so RS can mop up residual errors instead
/// of dropping whole frames on one bad chip pair.
struct LenientDecode {
  std::vector<std::uint8_t> bits;
  std::size_t violations = 0;
};
LenientDecode manchester_decode_lenient(std::span<const Chip> chips);

/// Unpacks bytes MSB-first into a bit vector (0/1 values).
std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes);

/// Packs bits (0/1 values, length must be a multiple of 8) MSB-first into
/// bytes. Returns nullopt on ragged length.
std::optional<std::vector<std::uint8_t>> bits_to_bytes(
    std::span<const std::uint8_t> bits);

// --- Byte-at-a-time LUT fast paths --------------------------------------
//
// 256-entry chip-pattern tables replace the per-bit loops: one row copy
// encodes a whole byte, two table hits decode one. Exactly equivalent to
// composing the bit-level functions (the differential suite and the
// fingerprint benches hold them bit-identical).

/// Fused bytes -> chips: manchester_encode(bytes_to_bits(bytes)).
/// `out_chips.size()` must equal `16 * bytes.size()`.
void manchester_encode_bytes(std::span<const std::uint8_t> bytes,
                             std::span<Chip> out_chips);

/// Fused lenient chips -> bytes:
/// bits_to_bytes(manchester_decode_lenient(chips).bits) for an even,
/// byte-aligned chip stream. `chips.size()` must equal
/// `16 * out_bytes.size()`. Returns the coding-violation count.
std::size_t manchester_decode_bytes_lenient(std::span<const Chip> chips,
                                            std::span<std::uint8_t> out_bytes);

}  // namespace densevlc::phy
