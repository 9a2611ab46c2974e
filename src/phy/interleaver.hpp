// Block interleaving for burst-error resilience.
//
// The Reed-Solomon code corrects up to 8 byte errors per 200-byte block —
// ample against AWGN, but a single interference burst (a passing shadow,
// a colliding frame edge) concentrates errors in consecutive bytes and
// can sink one block while its neighbours are clean. A depth-D block
// interleaver writes bytes row-wise into a D-row matrix and transmits
// column-wise, spreading any burst of length L over ceil(L/D) errors per
// RS block. This is the standard remedy and a natural extension to the
// paper's PHY (which specifies RS but no interleaving).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace densevlc::phy {

/// Interleaves `data` with the given depth (row count). Depth 0 or 1, or
/// data shorter than two rows, returns the input unchanged. The
/// transform pads internally but the output always has the input's size
/// (pad positions are skipped during read-out), so it is exactly
/// invertible by deinterleave() with the same depth.
std::vector<std::uint8_t> interleave(std::span<const std::uint8_t> data,
                                     std::size_t depth);

/// Inverse of interleave() for the same depth.
std::vector<std::uint8_t> deinterleave(std::span<const std::uint8_t> data,
                                       std::size_t depth);

// --- Zero-allocation overloads (see common/arena.hpp) -------------------
//
// The permutation is generated on the fly instead of materialized, so
// these never allocate. `out` must have the size of `data` and must not
// alias it. Bit-identical to the value-returning functions, which wrap
// them.

void interleave_into(std::span<const std::uint8_t> data, std::size_t depth,
                     std::span<std::uint8_t> out);

void deinterleave_into(std::span<const std::uint8_t> data, std::size_t depth,
                       std::span<std::uint8_t> out);

/// Longest wire burst a depth-D interleaver converts into at most
/// `rs_capacity` errors per RS block, assuming the canonical pairing of
/// one matrix row per RS codeword (depth == number of codewords, so a
/// burst of L wire bytes puts at most ceil(L / D) errors in each). The
/// Table 3 frame does not pair rows with codewords that way; see
/// FrameCodec::matched_burst_tolerance for its bound.
std::size_t burst_tolerance(std::size_t depth, std::size_t rs_capacity);

}  // namespace densevlc::phy
