// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frame.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/arena.hpp"
#include "phy/frame_codec.hpp"
#include "phy/interleaver.hpp"
#include "phy/reed_solomon.hpp"

namespace densevlc::phy {
namespace {

// 13-chip Barker code (+1 -> HIGH) repeated/padded to 32 chips, then the
// tail inverted so the pattern is not periodic — sharp autocorrelation.
constexpr std::array<std::uint8_t, 32> kPilotBits = {
    1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1,   // Barker-13
    0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0,   // inverted Barker-13
    1, 1, 0, 0, 1, 0};
// A different fixed word for the data preamble so pilot detectors do not
// fire on data frames and vice versa.
constexpr std::array<std::uint8_t, 32> kPreambleBits = {
    1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
    1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0};

std::array<Chip, 32> to_chips(const std::array<std::uint8_t, 32>& bits) {
  std::array<Chip, 32> chips{};
  for (std::size_t i = 0; i < bits.size(); ++i) {
    chips[i] = bits[i] ? Chip::kHigh : Chip::kLow;
  }
  return chips;
}

const std::array<Chip, 32>& pilot_chips() {
  static const std::array<Chip, 32> chips = to_chips(kPilotBits);
  return chips;
}

const std::array<Chip, 32>& preamble_chips() {
  static const std::array<Chip, 32> chips = to_chips(kPreambleBits);
  return chips;
}

const ReedSolomon& rs_codec() {
  static const ReedSolomon rs{kRsBlockParity};
  return rs;
}

void store_u16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v & 0xFF);
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

}  // namespace

std::span<const Chip> pilot_pattern() { return pilot_chips(); }

std::vector<Chip> leader_chips(std::uint8_t tx_id) {
  std::vector<Chip> chips(kPilotChips + 16);
  std::copy(pilot_chips().begin(), pilot_chips().end(), chips.begin());
  const std::uint8_t id_byte[1] = {tx_id};
  manchester_encode_bytes(id_byte,
                          std::span<Chip>{chips}.subspan(kPilotChips));
  return chips;
}

std::span<const Chip> preamble_pattern() { return preamble_chips(); }

std::size_t serialized_frame_bytes(std::size_t payload_bytes) {
  return kHeaderBytes + payload_bytes +
         rs_block_count(payload_bytes) * kRsBlockParity;
}

std::optional<FrameHeader> read_frame_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes || bytes[0] != kSfd) return std::nullopt;
  const FrameHeader header{get_u16(bytes, 1), get_u16(bytes, 3),
                           get_u16(bytes, 5), get_u16(bytes, 7)};
  if (header.length > kMaxPayload) return std::nullopt;
  return header;
}

void serialize_frame_into(const MacFrame& frame,
                          std::vector<std::uint8_t>& out) {
  const std::size_t payload = frame.payload.size();
  if (payload > kMaxPayload) {
    throw std::invalid_argument{"serialize_frame: payload exceeds kMaxPayload"};
  }
  arena_resize(out, serialized_frame_bytes(payload));
  out[0] = kSfd;
  store_u16(&out[1], static_cast<std::uint16_t>(payload));
  store_u16(&out[3], frame.dst);
  store_u16(&out[5], frame.src);
  store_u16(&out[7], frame.protocol);
  std::copy(frame.payload.begin(), frame.payload.end(),
            out.begin() + kHeaderBytes);
  // Block b covers payload bytes [b*200, min((b+1)*200, x)), and the
  // parity of every block trails the payload, matching Table 3's single
  // trailing Reed-Solomon field.
  const std::span<const std::uint8_t> data{frame.payload};
  const std::span<std::uint8_t> parity =
      std::span<std::uint8_t>{out}.subspan(kHeaderBytes + payload);
  for (std::size_t b = 0; b < rs_block_count(payload); ++b) {
    const std::size_t off = b * kRsBlockData;
    rs_codec().encode_parity_into(
        data.subspan(off, std::min(kRsBlockData, payload - off)),
        parity.subspan(b * kRsBlockParity, kRsBlockParity));
  }
}

std::vector<std::uint8_t> serialize_frame(const MacFrame& frame) {
  std::vector<std::uint8_t> wire;
  serialize_frame_into(frame, wire);
  return wire;
}

bool parse_frame_into(std::span<const std::uint8_t> bytes, ParsedFrame& out,
                      FrameParseScratch& scratch) {
  out.corrected_bytes = 0;
  const auto header = read_frame_header(bytes);
  if (!header) return false;
  const std::size_t length = header->length;
  if (bytes.size() < serialized_frame_bytes(length)) return false;
  out.frame.dst = header->dst;
  out.frame.src = header->src;
  out.frame.protocol = header->protocol;
  arena_resize(out.frame.payload, length);
  // Each block's codeword is its data followed by its parity, which sit
  // apart on the wire; decode_into copies a clean block straight out.
  const std::uint8_t* data = bytes.data() + kHeaderBytes;
  const std::uint8_t* parity = data + length;
  std::uint8_t* cw = scratch.codeword.data();
  for (std::size_t b = 0; b < rs_block_count(length); ++b) {
    const std::size_t off = b * kRsBlockData;
    const std::size_t len = std::min(kRsBlockData, length - off);
    std::copy_n(data + off, len, cw);
    std::copy_n(parity + b * kRsBlockParity, kRsBlockParity, cw + len);
    if (!rs_codec().decode_into({cw, len + kRsBlockParity}, scratch.block,
                                scratch.rs)) {
      return false;
    }
    std::copy(scratch.block.data.begin(), scratch.block.data.end(),
              out.frame.payload.begin() + static_cast<std::ptrdiff_t>(off));
    out.corrected_bytes += scratch.block.corrected_errors;
  }
  return true;
}

std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> bytes) {
  ParsedFrame out;
  FrameParseScratch scratch;
  if (!parse_frame_into(bytes, out, scratch)) return std::nullopt;
  return out;
}

void frame_to_chips_into(const MacFrame& frame, std::vector<Chip>& out,
                         std::vector<std::uint8_t>& staging) {
  serialize_frame_into(frame, staging);
  arena_resize(out, kPreambleChips + staging.size() * 16);
  const auto pre = preamble_pattern();
  std::copy(pre.begin(), pre.end(), out.begin());
  manchester_encode_bytes(staging,
                          std::span<Chip>{out}.subspan(kPreambleChips));
}

std::vector<Chip> frame_to_chips(const MacFrame& frame) {
  std::vector<Chip> chips;
  std::vector<std::uint8_t> staging;
  frame_to_chips_into(frame, chips, staging);
  return chips;
}

// The header rides in the clear; the body (payload + parity) goes through
// the interleaver.
std::vector<std::uint8_t> FrameCodec::encode(const MacFrame& frame) const {
  std::vector<std::uint8_t> wire = serialize_frame(frame);
  const auto body = interleave(
      std::span<const std::uint8_t>{wire}.subspan(kHeaderBytes), depth_);
  std::copy(body.begin(), body.end(), wire.begin() + kHeaderBytes);
  return wire;
}

std::optional<ParsedFrame> FrameCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  if (bytes.size() <= kHeaderBytes) return parse_frame(bytes);
  std::vector<std::uint8_t> wire(bytes.begin(), bytes.end());
  const auto body = deinterleave(bytes.subspan(kHeaderBytes), depth_);
  std::copy(body.begin(), body.end(), wire.begin() + kHeaderBytes);
  return parse_frame(wire);
}

std::size_t FrameCodec::matched_burst_tolerance(std::size_t payload_bytes) {
  const std::size_t depth = matched_depth(payload_bytes);
  const std::size_t one_row_per_codeword =
      burst_tolerance(depth, kRsBlockParity / 2);
  return depth <= 1 ? one_row_per_codeword : one_row_per_codeword / 2;
}

std::vector<std::uint8_t> serialize_controller_frame(
    const ControllerFrame& cf) {
  std::vector<std::uint8_t> out;
  const auto body = serialize_frame(cf.frame);
  out.reserve(9 + body.size());
  for (int i = 7; i >= 0; --i) {
    // DVLC_LINT_WAIVE(hot-loop-alloc): control plane, reserved above
    out.push_back(static_cast<std::uint8_t>((cf.tx_mask >> (8 * i)) & 0xFF));
  }
  // DVLC_LINT_WAIVE(hot-loop-alloc): control plane, reserved above
  out.push_back(cf.leading_tx);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<ControllerFrame> parse_controller_frame(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 9 + 9) return std::nullopt;
  ControllerFrame cf;
  for (std::size_t i = 0; i < 8; ++i) {
    cf.tx_mask = (cf.tx_mask << 8) | bytes[i];
  }
  cf.leading_tx = bytes[8];
  const auto parsed = parse_frame(bytes.subspan(9));
  if (!parsed) return std::nullopt;
  cf.frame = parsed->frame;
  return cf;
}

}  // namespace densevlc::phy
