// Backend-generic vector kernels for the PHY byte pipelines.
//
// Same scheme as src/dsp/dsp_kernels.hpp: each kernel is a template over
// a simd backend (common/simd.hpp), instantiated for the scalar backend
// in the regular TUs and for `simd::VectorBackend` in phy_simd.cpp (the
// only PHY TU compiled with the vector ISA flags). All kernels here work
// in the byte domain — XORs, table lookups, copies — so scalar and
// vector instantiations are exactly identical, not merely close.
//
// Manchester tables live here (shared by manchester.cpp and the
// kernels): the MSB-first pack8 decode LUT from the PR 5 scalar fast
// path, plus an LSB-first variant matching the bit order movemask
// produces (mask bit i == chip i within a 16-chip group).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"
#include "phy/gf256.hpp"

namespace densevlc::phy::detail {

// --- Manchester chip tables ----------------------------------------------

/// 256-entry chip-pattern table: row b holds the 16 chips of byte b,
/// MSB-first, bit 1 = (HIGH, LOW), bit 0 = (LOW, HIGH). Stored as raw
/// bytes so the kernels can vector-copy rows; values are Chip enumerators.
constexpr std::array<std::array<std::uint8_t, 16>, 256> build_encode_lut() {
  std::array<std::array<std::uint8_t, 16>, 256> lut{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned i = 0; i < 8; ++i) {
      const bool bit = ((b >> (7 - i)) & 1u) != 0;
      lut[b][2 * i] = bit ? 1 : 0;      // 1: Ih -> Il
      lut[b][2 * i + 1] = bit ? 0 : 1;  // 0: Il -> Ih
    }
  }
  return lut;
}
inline constexpr auto kEncodeLut = build_encode_lut();

/// Lenient decode of 8 chips (4 Manchester pairs) at once: the entry is
/// the decoded nibble plus the number of coding violations (violating
/// pairs resolve to bit 0, matching manchester_decode_lenient).
struct HalfDecode {
  std::uint8_t nibble = 0;
  std::uint8_t violations = 0;
};

/// Index = 8 chips packed MSB-first (chip i at bit 7-i), as produced by
/// pack8 in the scalar tail path.
constexpr std::array<HalfDecode, 256> build_decode_lut_msb() {
  std::array<HalfDecode, 256> lut{};
  for (unsigned idx = 0; idx < 256; ++idx) {
    std::uint8_t nibble = 0;
    std::uint8_t violations = 0;
    for (unsigned p = 0; p < 4; ++p) {
      const unsigned c0 = (idx >> (7 - 2 * p)) & 1u;
      const unsigned c1 = (idx >> (6 - 2 * p)) & 1u;
      unsigned bit = 0;
      if (c0 == 0 && c1 == 1) {
        bit = 0;
      } else if (c0 == 1 && c1 == 0) {
        bit = 1;
      } else {
        bit = 0;
        ++violations;
      }
      nibble = static_cast<std::uint8_t>((nibble << 1) | bit);
    }
    lut[idx] = HalfDecode{nibble, static_cast<std::uint8_t>(violations)};
  }
  return lut;
}
inline constexpr auto kDecodeLutMsb = build_decode_lut_msb();

/// Index = 8 chips packed LSB-first (chip i at bit i), the order
/// movemask_nonzero emits. Same pair semantics as the MSB table.
constexpr std::array<HalfDecode, 256> build_decode_lut_lsb() {
  std::array<HalfDecode, 256> lut{};
  for (unsigned idx = 0; idx < 256; ++idx) {
    std::uint8_t nibble = 0;
    std::uint8_t violations = 0;
    for (unsigned p = 0; p < 4; ++p) {
      const unsigned c0 = (idx >> (2 * p)) & 1u;
      const unsigned c1 = (idx >> (2 * p + 1)) & 1u;
      unsigned bit = 0;
      if (c0 == 0 && c1 == 1) {
        bit = 0;
      } else if (c0 == 1 && c1 == 0) {
        bit = 1;
      } else {
        bit = 0;
        ++violations;
      }
      nibble = static_cast<std::uint8_t>((nibble << 1) | bit);
    }
    lut[idx] = HalfDecode{nibble, static_cast<std::uint8_t>(violations)};
  }
  return lut;
}
inline constexpr auto kDecodeLutLsb = build_decode_lut_lsb();

/// Packs 8 chips into a kDecodeLutMsb index, MSB-first.
inline unsigned pack8(const std::uint8_t* chips) {
  unsigned idx = 0;
  for (unsigned i = 0; i < 8; ++i) {
    idx = (idx << 1) | static_cast<unsigned>(chips[i]);
  }
  return idx;
}

// --- Manchester kernels --------------------------------------------------

/// Fused bytes -> chips: one 16-byte LUT row store per byte.
template <class B>
void manchester_encode_bytes_kernel(const std::uint8_t* bytes,
                                    std::size_t n_bytes,
                                    std::uint8_t* out_chips) {
  for (std::size_t i = 0; i < n_bytes; ++i) {
    B::store16(out_chips + 16 * i, B::load16(kEncodeLut[bytes[i]].data()));
  }
}

/// Fused lenient chips -> bytes. Main loop: one native-width load turns
/// kU8Lanes chips into a nonzero-mask whose 16-bit groups index the
/// LSB-first decode LUT (two hits per output byte). Ragged tail uses the
/// scalar pack8 path. Returns the coding-violation count.
template <class B>
std::size_t manchester_decode_bytes_kernel(const std::uint8_t* chips,
                                           std::size_t n_bytes,
                                           std::uint8_t* out_bytes) {
  constexpr std::size_t kLanes = B::kU8Lanes;
  static_assert(kLanes % 16 == 0, "lane width must cover whole bytes");
  const std::size_t n_chips = n_bytes * 16;
  std::size_t violations = 0;
  std::size_t i = 0;
  std::size_t o = 0;
  for (; i + kLanes <= n_chips; i += kLanes) {
    const std::uint32_t m = B::movemask_nonzero(B::loadu(chips + i));
    for (std::size_t g = 0; g < kLanes / 16; ++g, ++o) {
      const HalfDecode hi = kDecodeLutLsb[(m >> (16 * g)) & 0xFFu];
      const HalfDecode lo = kDecodeLutLsb[(m >> (16 * g + 8)) & 0xFFu];
      out_bytes[o] = static_cast<std::uint8_t>((hi.nibble << 4) | lo.nibble);
      violations += hi.violations + lo.violations;
    }
  }
  for (; o < n_bytes; ++o, i += 16) {
    const HalfDecode hi = kDecodeLutMsb[pack8(chips + i)];
    const HalfDecode lo = kDecodeLutMsb[pack8(chips + i + 8)];
    out_bytes[o] = static_cast<std::uint8_t>((hi.nibble << 4) | lo.nibble);
    violations += hi.violations + lo.violations;
  }
  return violations;
}

// --- GF(256) Reed-Solomon column kernels ---------------------------------

/// Upper bound on parity symbols the column kernels support (the system
/// code is RS(.., 16 parity); 32 leaves headroom).
inline constexpr std::size_t kMaxRsParity = 32;

/// Split-nibble multiply of a whole vector by the fixed constant whose
/// tables are (lo, hi): mul(c, x) = lo[x & 0xF] ^ hi[x >> 4] per byte.
template <class B>
inline typename B::u8v gf_mul_vec(const typename B::tbl16& lo,
                                  const typename B::tbl16& hi,
                                  typename B::u8v x, typename B::u8v nib) {
  return B::xor_(B::lookup(lo, B::and_(x, nib)), B::lookup(hi, B::srl4(x)));
}

/// RS systematic-encoder LFSR advanced over `width` codewords at once.
/// Column-major staging: msg_cols[r * width + l] is byte r of codeword l;
/// parity_cols[i * width + l] receives parity symbol i of codeword l.
/// `width` must be a multiple of B::kU8Lanes; taps[i] are the nibble
/// tables of generator coefficient i+1 (matching ReedSolomon's
/// encode_rows_). Per column this is exactly encode_parity_into's
/// recurrence in the byte domain.
template <class B>
void rs_parity_cols_kernel(const std::uint8_t* msg_cols, std::size_t msg_len,
                           const gf256::NibbleTables* taps, std::size_t np,
                           std::uint8_t* parity_cols, std::size_t width) {
  using V = typename B::u8v;
  using T = typename B::tbl16;
  constexpr std::size_t kLanes = B::kU8Lanes;
  T lo[kMaxRsParity], hi[kMaxRsParity];
  for (std::size_t i = 0; i < np; ++i) {
    lo[i] = B::load_table(taps[i].lo.data());
    hi[i] = B::load_table(taps[i].hi.data());
  }
  const V nib = B::broadcast(0x0F);
  for (std::size_t c = 0; c < width; c += kLanes) {
    V par[kMaxRsParity];
    for (std::size_t i = 0; i < np; ++i) par[i] = B::broadcast(0);
    for (std::size_t r = 0; r < msg_len; ++r) {
      const V fb = B::xor_(B::loadu(msg_cols + r * width + c), par[0]);
      for (std::size_t i = 0; i + 1 < np; ++i) {
        par[i] = B::xor_(par[i + 1], gf_mul_vec<B>(lo[i], hi[i], fb, nib));
      }
      par[np - 1] = gf_mul_vec<B>(lo[np - 1], hi[np - 1], fb, nib);
    }
    for (std::size_t i = 0; i < np; ++i) {
      B::storeu(parity_cols + i * width + c, par[i]);
    }
  }
}

/// RS syndromes over `width` codewords at once (Horner over each column
/// for every root). roots[i] are the nibble tables of alpha^i, matching
/// ReedSolomon's syndrome_rows_. synd_cols[i * width + l] receives
/// syndrome i of codeword l.
template <class B>
void rs_syndrome_cols_kernel(const std::uint8_t* cw_cols,
                             std::size_t cw_len,
                             const gf256::NibbleTables* roots,
                             std::size_t np, std::uint8_t* synd_cols,
                             std::size_t width) {
  using V = typename B::u8v;
  using T = typename B::tbl16;
  constexpr std::size_t kLanes = B::kU8Lanes;
  T lo[kMaxRsParity], hi[kMaxRsParity];
  for (std::size_t i = 0; i < np; ++i) {
    lo[i] = B::load_table(roots[i].lo.data());
    hi[i] = B::load_table(roots[i].hi.data());
  }
  const V nib = B::broadcast(0x0F);
  for (std::size_t c = 0; c < width; c += kLanes) {
    for (std::size_t i = 0; i < np; ++i) {
      V acc = B::broadcast(0);
      for (std::size_t r = 0; r < cw_len; ++r) {
        acc = B::xor_(gf_mul_vec<B>(lo[i], hi[i], acc, nib),
                      B::loadu(cw_cols + r * width + c));
      }
      B::storeu(synd_cols + i * width + c, acc);
    }
  }
}

// --- Vector-backend entry points (defined in phy_simd.cpp) ---------------

void manchester_encode_bytes_vec(const std::uint8_t* bytes,
                                 std::size_t n_bytes,
                                 std::uint8_t* out_chips);
std::size_t manchester_decode_bytes_vec(const std::uint8_t* chips,
                                        std::size_t n_bytes,
                                        std::uint8_t* out_bytes);
void rs_parity_cols_vec(const std::uint8_t* msg_cols, std::size_t msg_len,
                        const gf256::NibbleTables* taps, std::size_t np,
                        std::uint8_t* parity_cols, std::size_t width);
void rs_syndrome_cols_vec(const std::uint8_t* cw_cols, std::size_t cw_len,
                          const gf256::NibbleTables* roots, std::size_t np,
                          std::uint8_t* synd_cols, std::size_t width);

}  // namespace densevlc::phy::detail
