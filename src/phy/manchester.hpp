// Manchester line coding (paper Sec. 3.3).
//
// DenseVLC keeps LED brightness constant across operating modes by
// Manchester-coding the OOK stream: every data bit becomes a transition,
// so HIGH and LOW chips are equiprobable regardless of payload. Paper
// convention: Il -> Ih (LOW then HIGH) encodes binary 0, Ih -> Il (HIGH
// then LOW) encodes binary 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace densevlc::phy {

/// A transmitted chip (half a Manchester symbol).
enum class Chip : std::uint8_t {
  kLow = 0,   ///< current Il = Ib - Isw/2
  kHigh = 1,  ///< current Ih = Ib + Isw/2
};

// The codec works a byte at a time from 256-entry chip-pattern tables:
// one row copy encodes a whole byte, two table hits decode one. Bits are
// taken MSB first. The differential suite holds both directions to the
// frozen bit-level loops in bench/phy_reference.

/// Encodes bytes into chips, 16 per byte (2 per bit, MSB first).
/// `out_chips.size()` must equal `16 * bytes.size()`.
void manchester_encode_bytes(std::span<const std::uint8_t> bytes,
                             std::span<Chip> out_chips);

/// Decodes chips back into bytes, leniently. A chip pair without a
/// transition (LL / HH: noise or loss of symbol lock) is a coding
/// violation; it resolves to a best guess (bit 0) and is counted. The
/// demodulator decodes this way so RS can mop up residual errors instead
/// of dropping whole frames on one bad chip pair. `chips.size()` must
/// equal `16 * out_bytes.size()`. Returns the coding-violation count.
std::size_t manchester_decode_bytes_lenient(std::span<const Chip> chips,
                                            std::span<std::uint8_t> out_bytes);

}  // namespace densevlc::phy
