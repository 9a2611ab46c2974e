// Frozen pre-LUT scalar PHY implementations, the reference the
// differential suites (tests/phy: test_fastpath, test_batch, test_phy)
// hold the fast paths to bit for bit.
//
// These are verbatim copies of the bit-at-a-time Manchester coder, the
// per-coefficient GF(256) Reed-Solomon codec, the permutation-vector
// interleaver, and the allocating frame serializer as they stood before
// the LUT/zero-allocation rework, plus the full-scan preamble search as
// it stood before the pruned search and the joint-transmission optical
// render as it stood before the tiled render. The bit-level Manchester
// coder and its LenientDecode result exist only here: the library codes
// a byte at a time. They must NOT be
// "improved": their whole value is staying exactly what the production
// code used to compute, so old-vs-new comparisons are bit-for-bit
// meaningful.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/beamspot.hpp"
#include "dsp/correlate.hpp"
#include "dsp/waveform.hpp"
#include "optics/led_model.hpp"
#include "phy/frame.hpp"
#include "phy/ook.hpp"
#include "phy/manchester.hpp"

namespace densevlc::bench::ref {

// --- Manchester (bit-level loops) ---------------------------------------

/// Bits decoded from chips plus the coding-violation count: a pair
/// without a transition (LL / HH) decodes as 0 and counts, as does an
/// odd trailing chip.
struct LenientDecode {
  std::vector<std::uint8_t> bits;
  std::size_t violations = 0;
};

std::vector<phy::Chip> manchester_encode(std::span<const std::uint8_t> bits);
LenientDecode manchester_decode_lenient(std::span<const phy::Chip> chips);
std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes);
std::optional<std::vector<std::uint8_t>> bits_to_bytes(
    std::span<const std::uint8_t> bits);

// --- Interleaver (explicit permutation vector) --------------------------

std::vector<std::uint8_t> interleave(std::span<const std::uint8_t> data,
                                     std::size_t depth);
std::vector<std::uint8_t> deinterleave(std::span<const std::uint8_t> data,
                                       std::size_t depth);

// --- Reed-Solomon (per-coefficient gf::mul) -----------------------------

class ReedSolomon {
 public:
  explicit ReedSolomon(std::size_t parity_symbols);

  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> message) const;
  std::optional<phy::RsDecodeResult> decode(
      std::span<const std::uint8_t> codeword) const;

  std::size_t parity_symbols() const { return n_parity_; }
  std::size_t correction_capacity() const { return n_parity_ / 2; }

 private:
  std::size_t n_parity_;
  std::vector<std::uint8_t> generator_;
};

// --- Frame (allocating serializer / parser on the reference RS) ---------

std::vector<std::uint8_t> serialize_frame(const phy::MacFrame& frame);
[[nodiscard]] std::optional<phy::ParsedFrame> parse_frame(
    std::span<const std::uint8_t> bytes);

// --- Whole-codec pipeline (FrameCodec semantics + chip coding) ----------

/// serialize + interleave(depth) + bytes_to_bits + manchester_encode:
/// the full scalar bytes-to-chips TX path (no preamble).
std::vector<phy::Chip> codec_encode_chips(const phy::MacFrame& frame,
                                          std::size_t depth);

/// manchester_decode_lenient + bits_to_bytes + deinterleave(depth) +
/// parse_frame: the full scalar chips-to-frame RX path.
std::optional<phy::ParsedFrame> codec_decode_chips(
    std::span<const phy::Chip> chips, std::size_t depth);

// --- Preamble search (full-scan normalized correlation) -----------------

/// Scores every window position with the scalar reference arithmetic —
/// rolling window mean/energy, per-position dot product accumulated in
/// pattern order, `dot / sqrt(var * pattern_energy)`, 0 for windows with
/// var <= 1e-30 — and returns the first position holding the maximum
/// score that reaches `threshold`.
std::optional<dsp::PeakDetection> detect_pattern(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold);

// --- Optical render (one clamped run per chip) ---------------------------

/// The received optical power of a joint transmission, rendered stream by
/// stream over the whole timeline: the timeline is sized from the longest
/// frame, the guard and the largest start offset and filled with
/// `ambient_optical_w`, then each TX with positive gain (servers, then
/// every interferer group's TXs) adds its idle level before its frame,
/// one `samples_per_chip` run per chip and its idle level after, each run
/// clamped to the timeline.
dsp::Waveform render_optical(
    const optics::LedModel& led, const phy::OokParams& ook,
    std::span<const core::ServingTx> servers, const phy::MacFrame& frame,
    std::span<const core::InterfererGroup> interferers,
    double ambient_optical_w);

}  // namespace densevlc::bench::ref
