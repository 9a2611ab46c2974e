// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frame.hpp"

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

const ReedSolomon& frame_rs_codec() { return rs_codec(); }

std::span<const Chip> pilot_pattern() { return pilot_chips(); }

std::span<const Chip> preamble_pattern() { return preamble_chips(); }

std::size_t serialized_frame_bytes(std::size_t payload_bytes) {
  return kHeaderBytes + payload_bytes +
         rs_block_count(payload_bytes) * kRsBlockParity;
}

void write_frame_header(const MacFrame& frame, std::span<std::uint8_t> out) {
  out[0] = kSfd;
  store_u16(&out[1], static_cast<std::uint16_t>(frame.payload.size()));
  store_u16(&out[3], frame.dst);
  store_u16(&out[5], frame.src);
  store_u16(&out[7], frame.protocol);
}

std::optional<FrameHeader> read_frame_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes || bytes[0] != kSfd) return std::nullopt;
  const FrameHeader header{get_u16(bytes, 1), get_u16(bytes, 3),
                           get_u16(bytes, 5), get_u16(bytes, 7)};
  if (header.length > kMaxPayload) return std::nullopt;
  return header;
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
