// Batch-of-frames codec: encode/decode many frames in one call. This is
// the frame layer's only implementation — serialize_frame, parse_frame,
// frame_to_chips and FrameCodec::encode/decode are one-lane calls into it.
//
// The per-epoch PHY loop handles every active beamspot's frame; doing
// them one at a time leaves the SIMD column kernels (phy_kernels.hpp)
// starved — an RS codeword is only 216 bytes, but 30 codewords side by
// side fill a 32-lane AVX2 vector. This layer stages all frames of a
// batch into struct-of-arrays scratch (`FrameBatch`), routes every RS
// block through the batch column kernels, and falls back to the scalar
// per-codeword paths only for blocks that actually carry errors (the
// syndrome screen separates them exactly).
//
// Contract: every lane's outputs depend on that lane's inputs alone — a
// lane decodes exactly as it would in a batch of one (the syndrome
// screen is exact, and dirty blocks run the same scalar decoder). Zero
// heap allocations once the batch scratch has warmed up (see
// common/arena.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"
#include "phy/reed_solomon.hpp"

namespace densevlc::phy {

/// Struct-of-arrays scratch for the batch codec paths. One instance per
/// pipeline (transmit or receive side); reused across epochs.
struct FrameBatch {
  /// Extent of one lane (frame) inside `wire`.
  struct Lane {
    std::size_t off = 0;
    std::size_t len = 0;
  };

  std::vector<Lane> lanes;             ///< per-lane extents into `wire`
  AlignedVector<std::uint8_t> wire;    ///< concatenated per-lane wire bytes
  std::vector<std::uint8_t> body;      ///< (de)interleave staging
  std::vector<RsParityJob> parity_jobs;          ///< encode-side RS work
  AlignedVector<std::uint8_t> codewords;         ///< decode-side staging
  std::vector<std::span<const std::uint8_t>> block_views;
  std::vector<std::uint8_t> block_clean;         ///< syndrome screen out
  std::vector<std::size_t> lane_first_block;     ///< per-lane block range
  std::vector<std::span<const std::uint8_t>> wire_views;
  std::vector<ParsedFrame*> out_ptrs;
  RsBatchScratch rs;
  RsDecodeResult block;                ///< scalar decode of a dirty block
  RsScratch block_rs;

  /// Wire bytes of lane `i` after encode_frames_batch.
  std::span<const std::uint8_t> lane_wire(std::size_t i) const {
    return {wire.data() + lanes[i].off, lanes[i].len};
  }
};

/// Serializes every frame into `batch.wire` (extents in `batch.lanes`,
/// readable via lane_wire), paper format (no interleaving): header,
/// payload, then per-block RS parity. Throws std::invalid_argument on
/// over-long payloads.
void serialize_frames_batch(std::span<const MacFrame* const> frames,
                            FrameBatch& batch);

/// Encodes every frame into `batch.wire` (extents in `batch.lanes`,
/// readable via lane_wire): serialize_frames_batch, then each lane's body
/// interleaved at the codec's depth. Throws like serialize_frames_batch.
void encode_frames_batch(const FrameCodec& codec,
                         std::span<const MacFrame* const> frames,
                         FrameBatch& batch);

/// Parses many paper-format (non-interleaved) wire streams at once:
/// out[i] receives the parse of wires[i], ok[i] = 1 on success; a failed
/// lane's out[i] is left partially filled and must not be read. Returns
/// the number of successfully parsed lanes.
std::size_t parse_frames_batch(
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame* const> out, std::span<std::uint8_t> ok,
    FrameBatch& batch);

/// Full batch decode with the codec's interleave depth: deinterleaves
/// each lane (when configured) and parses all lanes through the batch RS
/// path. Returns the number of successfully decoded lanes.
std::size_t decode_frames_batch(
    const FrameCodec& codec,
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame> out, std::span<std::uint8_t> ok,
    FrameBatch& batch);

/// frame_to_chips into a reused chip buffer; the serialized bytes are
/// staged in `staging` (a one-lane serialize_frames_batch) and
/// Manchester-coded straight into `out` after the preamble.
void frame_to_chips_into(const MacFrame& frame, std::vector<Chip>& out,
                         FrameBatch& staging);

}  // namespace densevlc::phy
