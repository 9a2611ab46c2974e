// Tests for the channel-report codec.
#include "mac/report.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace densevlc::mac {
namespace {

TEST(Report, QuantizationRoundTripWithinHalfLsb) {
  for (double g : {0.0, 1e-9, 3.7e-7, 8.6e-7, 2e-6}) {
    const double rt = dequantize_gain(quantize_gain(g));
    EXPECT_NEAR(rt, std::min(g, kGainMax), kGainLsb / 2.0 + 1e-15);
  }
}

TEST(Report, QuantizationClipsAboveRange) {
  EXPECT_EQ(quantize_gain(1.0), 65535);
  EXPECT_EQ(quantize_gain(-1e-9), 0);
}

TEST(Report, EncodeDecodeRoundTrip) {
  ChannelReport report;
  report.rx_id = 3;
  report.epoch = 42;
  Rng rng{1};
  for (int i = 0; i < 36; ++i) {
    report.gains.push_back(rng.uniform(0.0, 1e-6));
  }
  const auto decoded = decode_report(encode_report(report));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rx_id, 3);
  EXPECT_EQ(decoded->epoch, 42);
  ASSERT_EQ(decoded->gains.size(), 36u);
  for (std::size_t j = 0; j < 36; ++j) {
    EXPECT_NEAR(decoded->gains[j], report.gains[j], kGainLsb / 2.0 + 1e-15);
  }
}

TEST(Report, PayloadIsMinimal) {
  ChannelReport report;
  report.gains.assign(36, 1e-7);
  // 4-byte header + 2 bytes per TX: 76 bytes for the paper's grid.
  EXPECT_EQ(encode_report(report).size(), 76u);
}

TEST(Report, DecodeRejectsTruncated) {
  ChannelReport report;
  report.gains.assign(10, 1e-7);
  auto bytes = encode_report(report);
  bytes.pop_back();
  EXPECT_FALSE(decode_report(bytes).has_value());
  EXPECT_FALSE(decode_report(std::vector<std::uint8_t>{1, 2}).has_value());
}

}  // namespace
}  // namespace densevlc::mac
