// Systematic Reed-Solomon codec over GF(2^8).
//
// DenseVLC's frame format (paper Table 3) appends 16 parity bytes per
// ceil(x/200) block of payload, i.e. a shortened RS(216, 200) code per
// block that corrects up to 8 byte errors. This codec implements the
// general RS(n, k) machinery — encoder via LFSR division by the generator
// polynomial, decoder via syndromes, Berlekamp-Massey, Chien search and
// Forney's algorithm — and the frame layer instantiates it with 16 parity
// symbols.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/gf256.hpp"

namespace densevlc::phy {

/// Outcome of a successful decode.
struct RsDecodeResult {
  std::vector<std::uint8_t> data;   ///< corrected message (k' bytes)
  std::size_t corrected_errors = 0; ///< number of byte positions fixed
};

/// Fixed-capacity decoder workspace: every buffer the decoder needs, so
/// decode_into never touches the heap. A few KB — keep one per receive
/// chain and reuse it across frames (see common/arena.hpp).
struct RsScratch {
  std::array<std::uint8_t, 254> syndromes{};
  // Berlekamp-Massey polynomials. sigma can transiently grow to
  // prev_sigma.size() + m before trailing zeros are trimmed, so the
  // buffers are sized for the worst-case sum, not just degree 254.
  std::array<std::uint8_t, 512> sigma{};
  std::array<std::uint8_t, 512> prev_sigma{};
  std::array<std::uint8_t, 512> old_sigma{};
  std::array<std::uint8_t, 512> adjust{};
  std::array<std::uint8_t, 254> omega{};
  std::array<std::uint8_t, 256> sigma_deriv{};
  std::array<std::size_t, 128> error_positions{};
  std::array<std::uint8_t, 255> corrected{};
};

/// A Reed-Solomon code with a fixed number of parity symbols.
///
/// Message length is flexible per call (shortened code): any k with
/// k + parity <= 255 is accepted.
class ReedSolomon {
 public:
  /// Creates a codec adding `parity_symbols` bytes (must be even and in
  /// [2, 254]; throws std::invalid_argument otherwise). Correction
  /// capacity is parity_symbols / 2 byte errors.
  explicit ReedSolomon(std::size_t parity_symbols);

  /// Number of parity bytes appended per codeword.
  std::size_t parity_symbols() const { return n_parity_; }

  /// Maximum number of correctable byte errors per codeword.
  std::size_t correction_capacity() const { return n_parity_ / 2; }

  /// Encodes a message of up to 255 - parity_symbols() bytes. Returns
  /// message followed by parity (systematic). Throws std::invalid_argument
  /// on over-long messages.
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> message) const;

  /// Decodes a codeword (message + parity). Returns the corrected message
  /// or nullopt when more than correction_capacity() errors corrupted the
  /// word (decode failure).
  std::optional<RsDecodeResult> decode(
      std::span<const std::uint8_t> codeword) const;

  // --- Zero-allocation overloads (see common/arena.hpp) -----------------

  /// Writes just the parity bytes of `message` into `parity`, whose size
  /// must equal parity_symbols(). The LFSR division runs off per-tap
  /// GF(256) row tables; no allocation, no throw (contract-checks the
  /// sizes instead). `parity` must not alias `message`.
  void encode_parity_into(std::span<const std::uint8_t> message,
                          std::span<std::uint8_t> parity) const;

  /// decode() into a reused result + fixed workspace; false replaces
  /// nullopt. Bit-identical outcomes to decode(), which now wraps this.
  [[nodiscard]] bool decode_into(std::span<const std::uint8_t> codeword,
                                 RsDecodeResult& out,
                                 RsScratch& scratch) const;

 private:
  std::size_t n_parity_;
  std::vector<std::uint8_t> generator_;  // descending-degree coefficients
  // Row tables for the two hot inner loops: encode_rows_[i] multiplies by
  // generator_[i + 1] (LFSR tap i), syndrome_rows_[i] multiplies by
  // alpha^i (Horner step of syndrome i).
  std::vector<gf256::MulRow> encode_rows_;
  std::vector<gf256::MulRow> syndrome_rows_;

  // Writes the syndromes S_i = c(alpha^i), i = 0 .. 2t-1, of `codeword`
  // to out[0, 2t); true when every one is zero.
  bool syndromes_into(std::span<const std::uint8_t> codeword,
                      std::uint8_t* out) const;
};

}  // namespace densevlc::phy
