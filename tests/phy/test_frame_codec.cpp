// Tests for the interleaving frame codec.
#include "phy/frame_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/rng.hpp"
#include "phy_reference.hpp"

namespace densevlc::phy {
namespace {

MacFrame make_frame(std::size_t len, Rng& rng) {
  MacFrame f;
  f.dst = 1;
  f.src = 0xC0;
  f.payload.resize(len);
  for (auto& b : f.payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return f;
}

TEST(FrameCodec, DepthZeroMatchesPaperFormat) {
  Rng rng{1};
  const auto f = make_frame(300, rng);
  const FrameCodec codec{0};
  const auto paper = bench::ref::serialize_frame(f);
  EXPECT_EQ(codec.encode(f), paper);
  EXPECT_EQ(serialize_frame(f), paper);
}

TEST(FrameCodec, RoundTripAcrossDepths) {
  Rng rng{2};
  for (std::size_t depth : {0u, 1u, 2u, 4u, 8u}) {
    const FrameCodec codec{depth};
    for (std::size_t len : {0u, 50u, 200u, 450u, 801u}) {
      const auto f = make_frame(len, rng);
      const auto decoded = codec.decode(codec.encode(f));
      ASSERT_TRUE(decoded.has_value()) << "depth " << depth << " len "
                                       << len;
      EXPECT_EQ(decoded->frame, f);
    }
  }
}

TEST(FrameCodec, HeaderStaysClear) {
  Rng rng{3};
  const auto f = make_frame(400, rng);
  const FrameCodec codec{4};
  const auto wire = codec.encode(f);
  const auto plain = bench::ref::serialize_frame(f);
  ASSERT_EQ(wire.size(), plain.size());
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(wire[i], plain[i]) << "header byte " << i;
  }
  // ...and the body really is permuted, by the reference interleaver.
  const std::span<const std::uint8_t> body{plain.data() + 9,
                                           plain.size() - 9};
  const auto mixed = bench::ref::interleave(body, 4);
  EXPECT_TRUE(std::equal(mixed.begin(), mixed.end(), wire.begin() + 9));
  bool differs = false;
  for (std::size_t i = 9; i < wire.size(); ++i) {
    differs = differs || wire[i] != plain[i];
  }
  EXPECT_TRUE(differs);
}

TEST(FrameCodec, MatchedDepthSurvivesBurstPlainFormatDoesNot) {
  Rng rng{4};
  const auto f = make_frame(800, rng);  // 4 RS blocks
  const std::size_t depth = FrameCodec::matched_depth(f.payload.size());
  EXPECT_EQ(depth, 4u);
  const FrameCodec protected_codec{depth};
  const FrameCodec plain_codec{0};

  auto burst = [&](std::vector<std::uint8_t> wire) {
    for (std::size_t i = 300; i < 330; ++i) wire[i] ^= 0x77;
    return wire;
  };

  EXPECT_FALSE(plain_codec.decode(burst(plain_codec.encode(f))).has_value());
  const auto decoded =
      protected_codec.decode(burst(protected_codec.encode(f)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->frame, f);
  EXPECT_GT(decoded->corrected_bytes, 0u);
}

TEST(FrameCodec, MatchedBurstToleranceIsTight) {
  // At matched depth, a burst of the bound's length decodes wherever it
  // starts in the body, and one byte more fails somewhere. Each block's
  // parity trails the payload in another interleaver row, so the bound is
  // half of the one-row-per-codeword burst_tolerance. A single block
  // takes the whole burst.
  EXPECT_EQ(FrameCodec::matched_burst_tolerance(200), 8u);
  Rng rng{6};
  for (const std::size_t payload : {400u, 600u, 800u, 1000u}) {
    const auto f = make_frame(payload, rng);
    const FrameCodec codec{FrameCodec::matched_depth(payload)};
    const std::size_t bound = FrameCodec::matched_burst_tolerance(payload);
    EXPECT_EQ(bound, 4 * codec.interleave_depth()) << "payload " << payload;
    const auto clean = codec.encode(f);
    std::size_t longer_failed = 0;
    for (const std::size_t len : {bound, bound + 1}) {
      for (std::size_t start = kHeaderBytes; start + len <= clean.size();
           ++start) {
        auto wire = clean;
        for (std::size_t i = start; i < start + len; ++i) wire[i] ^= 0x77;
        const auto decoded = codec.decode(wire);
        const bool ok = decoded && decoded->frame == f;
        if (len == bound) {
          ASSERT_TRUE(ok) << "payload " << payload << " start " << start;
        } else {
          longer_failed += ok ? 0 : 1;
        }
      }
    }
    EXPECT_GT(longer_failed, 0u) << "payload " << payload;
  }
}

TEST(FrameCodec, MatchedDepthSingleBlockIsOne) {
  EXPECT_EQ(FrameCodec::matched_depth(0), 1u);
  EXPECT_EQ(FrameCodec::matched_depth(200), 1u);
  EXPECT_EQ(FrameCodec::matched_depth(201), 2u);
  EXPECT_EQ(FrameCodec::matched_depth(1000), 5u);
}

TEST(FrameCodec, WrongDepthFailsToDecode) {
  Rng rng{5};
  const auto f = make_frame(600, rng);
  const FrameCodec enc{3};
  const FrameCodec dec{5};
  // Mismatched interleaving scrambles the RS blocks beyond capacity.
  EXPECT_FALSE(dec.decode(enc.encode(f)).has_value());
}

}  // namespace
}  // namespace densevlc::phy
