// DenseVLC frame format (paper Table 3).
//
// On-air layout produced by a transmitter:
//
//   [pilot: 32 chips] [TX id: 1 byte]          -- only from the leading TX,
//                                                  consumed by peer TXs for
//                                                  NLOS synchronization
//   [preamble: 32 chips] [SFD: 1 B] [Length: 2 B] [Dst: 2 B] [Src: 2 B]
//   [Protocol: 2 B] [Payload: x B] [Reed-Solomon: ceil(x/200) * 16 B]
//
// Pilot and preamble are fixed chip patterns (not Manchester-coded data);
// everything from SFD onward is Manchester-coded bytes. The Ethernet
// encapsulation from controller to TXs prepends an 8-byte TX-ID mask
// selecting which transmitters must radiate the frame (Sec. 7.2).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/manchester.hpp"
#include "phy/reed_solomon.hpp"

namespace densevlc::phy {

/// Start-of-frame delimiter byte following the preamble.
inline constexpr std::uint8_t kSfd = 0xA7;

/// Number of chips in the synchronization pilot and in the preamble.
inline constexpr std::size_t kPilotChips = 32;
inline constexpr std::size_t kPreambleChips = 32;

/// Payload bytes covered by each 16-parity-byte Reed-Solomon block.
inline constexpr std::size_t kRsBlockData = 200;
inline constexpr std::size_t kRsBlockParity = 16;

/// Maximum payload accepted by the serializer (fits common MTUs).
inline constexpr std::size_t kMaxPayload = 1500;

/// Header bytes ahead of the payload: SFD, length, dst, src, protocol.
inline constexpr std::size_t kHeaderBytes = 9;

/// Reed-Solomon blocks protecting a payload of `payload_bytes`.
constexpr std::size_t rs_block_count(std::size_t payload_bytes) {
  return (payload_bytes + kRsBlockData - 1) / kRsBlockData;
}

/// Protocol field values used by the MAC.
enum class Protocol : std::uint16_t {
  kData = 0x0001,           ///< application payload downlink
  kChannelProbe = 0x0002,   ///< controller pilot for channel measurement
  kChannelReport = 0x0003,  ///< RX -> controller link-quality report
  kAck = 0x0004,            ///< RX -> controller MAC acknowledgement
};

/// The MAC frame carried between SFD and RS parity.
struct MacFrame {
  std::uint16_t dst = 0;
  std::uint16_t src = 0;
  std::uint16_t protocol = static_cast<std::uint16_t>(Protocol::kData);
  std::vector<std::uint8_t> payload;

  bool operator==(const MacFrame&) const = default;
};

/// The fixed pilot chip pattern (a 13-chip Barker code extended to 32
/// chips), chosen for a sharp correlation peak under the oversampled NLOS
/// detection of Sec. 6.2.
std::span<const Chip> pilot_pattern();

/// The leading TX's synchronization chips: the pilot pattern followed by
/// the Manchester coding of its `tx_id` byte (kPilotChips + 16 chips).
std::vector<Chip> leader_chips(std::uint8_t tx_id);

/// The fixed preamble chip pattern used for frame alignment at data RXs.
std::span<const Chip> preamble_pattern();

/// Serialized byte count for a given payload size: header + payload +
/// RS parity.
std::size_t serialized_frame_bytes(std::size_t payload_bytes);

/// The header fields after the SFD, big-endian on the wire.
struct FrameHeader {
  std::uint16_t length = 0;  ///< payload bytes
  std::uint16_t dst = 0;
  std::uint16_t src = 0;
  std::uint16_t protocol = 0;
};

/// Reads the header at the start of `bytes`. Returns nullopt when fewer
/// than kHeaderBytes are given, the SFD is wrong, or the length field
/// exceeds kMaxPayload. The body is not checked.
[[nodiscard]] std::optional<FrameHeader> read_frame_header(
    std::span<const std::uint8_t> bytes);

/// Serializes SFD..parity. Throws std::invalid_argument when the payload
/// exceeds kMaxPayload.
std::vector<std::uint8_t> serialize_frame(const MacFrame& frame);

/// Result of parsing a received byte stream back into a frame.
struct ParsedFrame {
  MacFrame frame;
  std::size_t corrected_bytes = 0;  ///< RS corrections applied
};

/// Parses bytes produced by serialize_frame (possibly corrupted). Returns
/// nullopt when the SFD is wrong, the length field is implausible, or any
/// RS block fails to decode.
[[nodiscard]] std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> bytes);

/// Full on-air chip sequence for a frame: preamble chips followed by the
/// Manchester coding of the serialized bytes. (The pilot is prepended
/// separately by the leading TX only.)
std::vector<Chip> frame_to_chips(const MacFrame& frame);

// --- Zero-allocation overloads (see common/arena.hpp) -------------------

/// serialize_frame into a reused buffer: the header and payload, then
/// each block's parity. Throws like serialize_frame.
void serialize_frame_into(const MacFrame& frame, std::vector<std::uint8_t>& out);

/// Workspace for parse_frame_into: one block's codeword, its decode and
/// the RS decoder's buffers.
struct FrameParseScratch {
  std::array<std::uint8_t, kRsBlockData + kRsBlockParity> codeword{};
  RsDecodeResult block;
  RsScratch rs;
};

/// parse_frame into a reused result; false replaces nullopt, and `out`
/// must then not be read.
[[nodiscard]] bool parse_frame_into(std::span<const std::uint8_t> bytes,
                                    ParsedFrame& out,
                                    FrameParseScratch& scratch);

/// frame_to_chips into a reused chip buffer; the serialized bytes are
/// staged in `staging`.
void frame_to_chips_into(const MacFrame& frame, std::vector<Chip>& out,
                         std::vector<std::uint8_t>& staging);

/// Controller -> TX Ethernet encapsulation (Sec. 7.2): 64-bit mask of TX
/// ids that must transmit, the appointed leading TX, and the MAC frame.
struct ControllerFrame {
  std::uint64_t tx_mask = 0;      ///< bit i set => TX i transmits
  std::uint8_t leading_tx = 0;    ///< TX appointed to emit the pilot
  MacFrame frame;

  bool operator==(const ControllerFrame&) const = default;

  /// True if TX `id` (0-based) is selected.
  bool selects(std::size_t id) const {
    return id < 64 && ((tx_mask >> id) & 1) != 0;
  }
};

/// Serializes / parses the Ethernet payload (mask + leading + frame bytes).
std::vector<std::uint8_t> serialize_controller_frame(const ControllerFrame& cf);
[[nodiscard]] std::optional<ControllerFrame> parse_controller_frame(
    std::span<const std::uint8_t> bytes);

}  // namespace densevlc::phy
