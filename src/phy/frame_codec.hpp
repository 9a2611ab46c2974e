// FrameCodec: the Table 3 serializer with optional burst protection.
//
// Composes serialize_frame/parse_frame with the block interleaver: the
// 9-byte header (SFD, length, dst, src, protocol) stays in the clear —
// receivers must read the length before they can deinterleave — while
// payload + parity are interleaved at a configurable depth. Depth 0/1
// reproduces the paper's exact wire format byte for byte.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "phy/frame.hpp"

namespace densevlc::phy {

/// Stateless codec configured once per link: serialize_frame /
/// parse_frame with the body (de)interleaved in between.
class FrameCodec {
 public:
  /// `interleave_depth` of 0 or 1 disables interleaving (paper format).
  explicit FrameCodec(std::size_t interleave_depth = 0)
      : depth_{interleave_depth} {}

  std::size_t interleave_depth() const { return depth_; }

  /// Serializes a frame to wire bytes (header clear, body optionally
  /// interleaved). Same length as serialize_frame for every depth.
  std::vector<std::uint8_t> encode(const MacFrame& frame) const;

  /// Parses wire bytes produced by encode() with the same depth.
  std::optional<ParsedFrame> decode(
      std::span<const std::uint8_t> bytes) const;

  /// Depth that gives each RS codeword one interleaver row's share of a
  /// burst for a given payload size: one row per block. Returns 1 when
  /// the payload fits a single RS block (interleaving cannot help within
  /// one block).
  static std::size_t matched_depth(std::size_t payload_bytes) {
    const std::size_t blocks = rs_block_count(payload_bytes);
    return blocks <= 1 ? 1 : blocks;
  }

  /// Longest burst of body bytes that a codec at matched_depth decodes
  /// wherever the burst starts. Table 3 puts every block's parity after
  /// the payload, so rows do not hold one codeword each: a burst can hit
  /// a block's data in one row and its parity in another. Each codeword
  /// then takes up to two rows' share, half of phy::burst_tolerance's
  /// one-row-per-codeword bound (depth x 4 bytes, e.g. 16 at 800 B). A
  /// single block takes the whole burst: its 8-byte capacity.
  static std::size_t matched_burst_tolerance(std::size_t payload_bytes);

 private:
  std::size_t depth_;
};

}  // namespace densevlc::phy
