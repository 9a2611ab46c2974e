// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frame_batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "phy/interleaver.hpp"

namespace densevlc::phy {
namespace {

using Permutation = void (*)(std::span<const std::uint8_t>, std::size_t,
                             std::span<std::uint8_t>);

// (De)interleaves the body of `wire` (everything after the clear header)
// in place, copying it through `staging`. No-op at depth 0/1 or when
// `wire` holds no body.
void permute_body(std::span<std::uint8_t> wire, std::size_t depth,
                  Permutation permute, std::vector<std::uint8_t>& staging) {
  if (depth <= 1 || wire.size() <= kHeaderBytes) return;
  const std::span<std::uint8_t> body = wire.subspan(kHeaderBytes);
  arena_resize(staging, body.size());
  std::copy(body.begin(), body.end(), staging.begin());
  permute(staging, depth, body);
}

}  // namespace

void serialize_frames_batch(std::span<const MacFrame* const> frames,
                            FrameBatch& batch) {
  const std::size_t n = frames.size();
  arena_resize(batch.lanes, n);
  std::size_t total = 0;
  std::size_t total_blocks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t payload = frames[i]->payload.size();
    if (payload > kMaxPayload) {
      throw std::invalid_argument{
          "encode_frames_batch: payload exceeds kMaxPayload"};
    }
    batch.lanes[i] = {total, serialized_frame_bytes(payload)};
    total += batch.lanes[i].len;
    total_blocks += rs_block_count(payload);
  }
  arena_resize(batch.wire, total);
  arena_resize(batch.parity_jobs, total_blocks);

  // Header + payload per lane, with one RS parity job per block writing
  // straight into the wire tail: block i covers payload bytes
  // [i*200, min((i+1)*200, x)), and the parity of every block trails the
  // payload, matching Table 3's single trailing Reed-Solomon field.
  std::size_t job = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const MacFrame& frame = *frames[i];
    const std::size_t payload = frame.payload.size();
    std::uint8_t* out = batch.wire.data() + batch.lanes[i].off;
    write_frame_header(frame, {out, kHeaderBytes});
    std::copy(frame.payload.begin(), frame.payload.end(),
              out + kHeaderBytes);
    std::size_t parity_at = kHeaderBytes + payload;
    for (std::size_t off = 0; off < payload; off += kRsBlockData) {
      const std::size_t len = std::min(kRsBlockData, payload - off);
      batch.parity_jobs[job++] = RsParityJob{
          std::span<const std::uint8_t>{out + kHeaderBytes + off, len},
          std::span<std::uint8_t>{out + parity_at, kRsBlockParity}};
      parity_at += kRsBlockParity;
    }
  }
  DVLC_ASSERT(job == total_blocks, "encode batch block accounting drifted");
  frame_rs_codec().encode_parity_batch(batch.parity_jobs, batch.rs);
}

void encode_frames_batch(const FrameCodec& codec,
                         std::span<const MacFrame* const> frames,
                         FrameBatch& batch) {
  serialize_frames_batch(frames, batch);
  for (const FrameBatch::Lane& lane : batch.lanes) {
    permute_body({batch.wire.data() + lane.off, lane.len},
                 codec.interleave_depth(), interleave_into, batch.body);
  }
}

std::size_t parse_frames_batch(
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame* const> out, std::span<std::uint8_t> ok,
    FrameBatch& batch) {
  const std::size_t n = wires.size();
  DVLC_EXPECT(out.size() == n && ok.size() == n,
              "parse_frames_batch: span sizes must match");

  // Pass 1 — header validation and block accounting. ok[i] tentatively
  // records "header valid"; lanes failing here end with their result
  // cleared and ok[i] = 0.
  arena_resize(batch.lane_first_block, n + 1);
  std::size_t total_blocks = 0;
  std::size_t total_cw_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    batch.lane_first_block[i] = total_blocks;
    ParsedFrame& pf = *out[i];
    pf.corrected_bytes = 0;
    arena_clear(pf.frame.payload);
    ok[i] = 0;
    const std::span<const std::uint8_t> bytes = wires[i];
    const auto header = read_frame_header(bytes);
    if (!header) continue;
    const std::size_t length = header->length;
    if (bytes.size() < serialized_frame_bytes(length)) continue;
    ok[i] = 1;
    pf.frame.dst = header->dst;
    pf.frame.src = header->src;
    pf.frame.protocol = header->protocol;
    total_blocks += rs_block_count(length);
    total_cw_bytes += serialized_frame_bytes(length) - kHeaderBytes;
  }
  batch.lane_first_block[n] = total_blocks;

  // Pass 2 — stage every RS block codeword (data ++ parity) contiguously
  // so the syndrome screen sees one flat span per block.
  arena_resize(batch.codewords, total_cw_bytes);
  arena_resize(batch.block_views, total_blocks);
  arena_resize(batch.block_clean, total_blocks);
  std::size_t cw_at = 0;
  std::size_t block = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i] == 0) continue;
    const std::span<const std::uint8_t> bytes = wires[i];
    const std::size_t length = read_frame_header(bytes)->length;  // pass 1
    for (std::size_t b = 0; b < rs_block_count(length); ++b) {
      const std::size_t off = b * kRsBlockData;
      const std::size_t len = std::min(kRsBlockData, length - off);
      std::uint8_t* cw = batch.codewords.data() + cw_at;
      std::copy_n(bytes.data() + kHeaderBytes + off, len, cw);
      std::copy_n(bytes.data() + kHeaderBytes + length + b * kRsBlockParity,
                  kRsBlockParity, cw + len);
      batch.block_views[block++] =
          std::span<const std::uint8_t>{cw, len + kRsBlockParity};
      cw_at += len + kRsBlockParity;
    }
  }
  DVLC_ASSERT(block == total_blocks && cw_at == total_cw_bytes,
              "parse batch block accounting drifted");
  const ReedSolomon& rs = frame_rs_codec();
  rs.syndrome_screen_batch(batch.block_views, batch.block_clean, batch.rs);

  // Pass 3 — assemble lanes in order. Clean blocks copy their data bytes
  // directly (what decode_into's all-zero-syndromes fast path does);
  // dirty blocks run the full scalar decoder, and the first failing block
  // rejects its lane.
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i] == 0) continue;
    ParsedFrame& pf = *out[i];
    bool good = true;
    for (std::size_t b = batch.lane_first_block[i];
         good && b < batch.lane_first_block[i + 1]; ++b) {
      const std::span<const std::uint8_t> cw = batch.block_views[b];
      const std::size_t len = cw.size() - kRsBlockParity;
      if (batch.block_clean[b] != 0) {
        pf.frame.payload.insert(pf.frame.payload.end(), cw.begin(),
                                cw.begin() + static_cast<std::ptrdiff_t>(len));
      } else if (rs.decode_into(cw, batch.block, batch.block_rs)) {
        pf.corrected_bytes += batch.block.corrected_errors;
        pf.frame.payload.insert(pf.frame.payload.end(),
                                batch.block.data.begin(),
                                batch.block.data.end());
      } else {
        good = false;
      }
    }
    ok[i] = good ? 1 : 0;
    decoded += good ? 1 : 0;
  }
  return decoded;
}

std::size_t decode_frames_batch(
    const FrameCodec& codec,
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame> out, std::span<std::uint8_t> ok,
    FrameBatch& batch) {
  const std::size_t n = wires.size();
  DVLC_EXPECT(out.size() == n && ok.size() == n,
              "decode_frames_batch: span sizes must match");
  // Stage each lane's bytes (deinterleaved when the codec is configured
  // so), then hand contiguous views to the shared parse path.
  arena_resize(batch.lanes, n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    batch.lanes[i] = {total, wires[i].size()};
    total += wires[i].size();
  }
  arena_resize(batch.wire, total);
  arena_resize(batch.wire_views, n);
  arena_resize(batch.out_ptrs, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* lane = batch.wire.data() + batch.lanes[i].off;
    std::copy(wires[i].begin(), wires[i].end(), lane);
    permute_body({lane, batch.lanes[i].len}, codec.interleave_depth(),
                 deinterleave_into, batch.body);
    batch.wire_views[i] =
        std::span<const std::uint8_t>{lane, batch.lanes[i].len};
    batch.out_ptrs[i] = &out[i];
  }
  return parse_frames_batch(batch.wire_views, batch.out_ptrs, ok, batch);
}

// --- One-lane forms -----------------------------------------------------

std::vector<std::uint8_t> serialize_frame(const MacFrame& frame) {
  const MacFrame* const lane[] = {&frame};
  FrameBatch batch;
  serialize_frames_batch(lane, batch);
  const auto wire = batch.lane_wire(0);
  return {wire.begin(), wire.end()};
}

std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> bytes) {
  const std::span<const std::uint8_t> wire[] = {bytes};
  ParsedFrame out;
  ParsedFrame* const out_ptr[] = {&out};
  std::uint8_t ok = 0;
  FrameBatch batch;
  if (parse_frames_batch(wire, out_ptr, {&ok, 1}, batch) == 0) {
    return std::nullopt;
  }
  return out;
}

std::vector<std::uint8_t> FrameCodec::encode(const MacFrame& frame) const {
  const MacFrame* const lane[] = {&frame};
  FrameBatch batch;
  encode_frames_batch(*this, lane, batch);
  const auto wire = batch.lane_wire(0);
  return {wire.begin(), wire.end()};
}

std::optional<ParsedFrame> FrameCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  const std::span<const std::uint8_t> wire[] = {bytes};
  ParsedFrame out;
  std::uint8_t ok = 0;
  FrameBatch batch;
  if (decode_frames_batch(*this, wire, {&out, 1}, {&ok, 1}, batch) == 0) {
    return std::nullopt;
  }
  return out;
}

void frame_to_chips_into(const MacFrame& frame, std::vector<Chip>& out,
                         FrameBatch& staging) {
  const MacFrame* const lane[] = {&frame};
  serialize_frames_batch(lane, staging);
  const auto wire = staging.lane_wire(0);
  arena_resize(out, kPreambleChips + wire.size() * 16);
  const auto pre = preamble_pattern();
  std::copy(pre.begin(), pre.end(), out.begin());
  manchester_encode_bytes(wire, std::span<Chip>{out}.subspan(kPreambleChips));
}

std::vector<Chip> frame_to_chips(const MacFrame& frame) {
  std::vector<Chip> chips;
  FrameBatch staging;
  frame_to_chips_into(frame, chips, staging);
  return chips;
}

}  // namespace densevlc::phy
