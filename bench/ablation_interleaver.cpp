// Ablation: block interleaving vs burst errors.
//
// The paper's frame format specifies Reed-Solomon per 200-byte block but
// no interleaving; bursts (shadowing transients, colliding frame edges)
// then concentrate errors in one block. This bench measures frame
// survival versus burst length with and without a depth-matched
// interleaver, on the serialized wire representation.
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"

namespace {

using namespace densevlc;

/// Survival rate of `trials` frames against one burst of `burst_len`
/// corrupted bytes at a random offset into the body (payload + parity;
/// the 9-byte header rides in the clear either way), through `codec`.
double survival(std::size_t burst_len, const phy::FrameCodec& codec, Rng& rng,
                std::size_t trials) {
  phy::MacFrame frame;
  frame.payload.resize(800);  // 4 RS blocks
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const auto clean = codec.encode(frame);
  const std::size_t body_bytes = clean.size() - phy::kHeaderBytes;

  std::size_t survived = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    auto wire = clean;
    const auto offset = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(body_bytes - burst_len)));
    const std::size_t start = phy::kHeaderBytes + offset;
    for (std::size_t i = 0; i < burst_len; ++i) {
      wire[start + i] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    const auto parsed = codec.decode(wire);
    survived += parsed && parsed->frame == frame ? 1 : 0;
  }
  return static_cast<double>(survived) / static_cast<double>(trials);
}

}  // namespace

int main() {
  std::cout << "Ablation - burst-error survival with and without block "
               "interleaving\n"
               "(800 B payload = 4 RS blocks; depth 4 interleaver; 200 "
               "trials per point)\n\n";

  Rng rng{0xAB1E};
  TablePrinter table{{"burst [bytes]", "no interleaver", "interleaved",
                      "analytic bound"}};
  const std::size_t depth = phy::FrameCodec::matched_depth(800);
  const std::size_t tolerance = phy::FrameCodec::matched_burst_tolerance(800);
  for (std::size_t burst : {4u, 8u, 12u, 16u, 24u, 32u, 40u, 64u}) {
    const double without = survival(burst, phy::FrameCodec{0}, rng, 200);
    const double with = survival(burst, phy::FrameCodec{depth}, rng, 200);
    table.add_row({std::to_string(burst), fmt(100.0 * without, 0) + "%",
                   fmt(100.0 * with, 0) + "%",
                   burst <= tolerance ? "protected" : "beyond"});
  }
  table.print(std::cout);
  table.print_csv(std::cout, "ablation_interleaver");

  std::cout << "\nRS alone corrects 8 bytes per block: bursts beyond ~8 "
               "bytes start killing frames.\nWith a depth-4 interleaver "
               "every burst of up to "
            << tolerance
            << " bytes decodes wherever it starts: each block's parity\n"
               "trails the payload, so a burst can reach a block in two "
               "rows.\n";
  return 0;
}
