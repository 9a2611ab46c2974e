// Robustness ("fuzz-lite") tests: every deserializer must survive
// arbitrary bytes without crashing and without hallucinating valid
// structures at a meaningful rate.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/ini.hpp"
#include "common/rng.hpp"
#include "mac/arq.hpp"
#include "mac/report.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"
#include "phy_reference.hpp"
#include "scenario/campaign.hpp"
#include "scenario/spec.hpp"

namespace densevlc {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

TEST(Fuzz, ParseFrameNeverAcceptsRandomNoise) {
  Rng rng{0xF022};
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 600));
    const auto bytes = random_bytes(size, rng);
    if (phy::parse_frame(bytes)) ++accepted;
  }
  // The SFD gate alone rejects 255/256; RS syndromes kill the rest. A
  // false accept should be essentially impossible.
  EXPECT_EQ(accepted, 0);
}

TEST(Fuzz, ParseFrameSurvivesMutations) {
  // Start from a valid frame and flip random bytes: parse either fails
  // cleanly or returns *some* frame; it must never crash or return a
  // frame longer than the buffer implies.
  Rng rng{0xF023};
  phy::MacFrame f;
  f.payload = random_bytes(300, rng);
  const auto clean = phy::serialize_frame(f);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = clean;
    const auto flips = static_cast<std::size_t>(rng.uniform_int(1, 40));
    for (std::size_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    const auto parsed = phy::parse_frame(bytes);
    if (parsed) {
      EXPECT_LE(parsed->frame.payload.size(), phy::kMaxPayload);
    }
  }
}

phy::MacFrame random_frame(std::size_t max_payload, Rng& rng) {
  phy::MacFrame f;
  f.dst = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.src = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.payload = random_bytes(
      static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(max_payload))),
      rng);
  return f;
}

TEST(Fuzz, FrameCodecDecodeTotal) {
  // Every interleave depth on arbitrary bytes: lengths below, at and just
  // above the clear header, headers with a valid SFD and any length field
  // (including ones above kMaxPayload), and encoded frames cut short or
  // hit by random bytes. Decode must never crash or read past the buffer
  // (checked under the asan preset) and never accept an over-long frame.
  constexpr auto kHeader = static_cast<std::int64_t>(phy::kHeaderBytes);
  constexpr auto kMaxPayload = static_cast<std::int64_t>(phy::kMaxPayload);
  Rng rng{0xF028};
  std::size_t accepted = 0;
  for (std::size_t depth = 0; depth <= 8; ++depth) {
    const phy::FrameCodec codec{depth};
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<std::uint8_t> bytes;
      switch (trial % 4) {
        case 0:  // around the header boundary
          bytes = random_bytes(
              static_cast<std::size_t>(rng.uniform_int(0, kHeader + 2)), rng);
          break;
        case 1:  // random bytes up to a full frame
          bytes = random_bytes(
              static_cast<std::size_t>(rng.uniform_int(0, 1800)), rng);
          break;
        case 2: {  // a valid SFD with an arbitrary length field
          bytes = random_bytes(
              static_cast<std::size_t>(
                  rng.uniform_int(kHeader, kHeader + 700)),
              rng);
          const auto length = static_cast<std::uint16_t>(
              rng.bernoulli(0.5)
                  ? rng.uniform_int(kMaxPayload + 1, 0xFFFF)
                  : rng.uniform_int(0, 700));
          bytes[0] = phy::kSfd;
          bytes[1] = static_cast<std::uint8_t>(length >> 8);
          bytes[2] = static_cast<std::uint8_t>(length & 0xFF);
          break;
        }
        default: {  // an encoded frame, cut short or corrupted
          bytes = codec.encode(random_frame(phy::kMaxPayload, rng));
          if (rng.bernoulli(0.5)) {
            bytes.resize(static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(bytes.size()))));
          }
          const auto hits = rng.uniform_int(0, 12);
          for (std::int64_t h = 0; h < hits && !bytes.empty(); ++h) {
            const auto at = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(bytes.size()) - 1));
            bytes[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          }
          break;
        }
      }
      const auto parsed = codec.decode(bytes);
      if (parsed) {
        ++accepted;
        EXPECT_LE(parsed->frame.payload.size(), phy::kMaxPayload);
        EXPECT_LE(phy::serialized_frame_bytes(parsed->frame.payload.size()),
                  bytes.size());
      }
    }
  }
  EXPECT_GT(accepted, 0u);  // the valid-frame cases must get through
}

TEST(Fuzz, ParseFrameMatchesReference) {
  // Valid, mutated and random wires: the parser must agree with the
  // frozen reference parser on every one, corrections included.
  Rng rng{0xF029};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 400; ++round) {
    const auto kind = rng.uniform_int(0, 2);
    std::vector<std::uint8_t> wire;
    if (kind == 2) {
      wire = random_bytes(static_cast<std::size_t>(rng.uniform_int(0, 700)),
                          rng);
    } else {
      wire = phy::serialize_frame(random_frame(700, rng));
      if (kind == 1) {
        const auto hits = rng.uniform_int(1, 20);
        for (std::int64_t h = 0; h < hits; ++h) {
          const auto at = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(wire.size()) - 1));
          wire[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
      }
    }

    const auto got = phy::parse_frame(wire);
    const auto expect = bench::ref::parse_frame(wire);
    ASSERT_EQ(got.has_value(), expect.has_value()) << "round " << round;
    (got ? accepted : rejected) += 1;
    if (!got) continue;
    EXPECT_EQ(got->frame, expect->frame) << "round " << round;
    EXPECT_EQ(got->corrected_bytes, expect->corrected_bytes)
        << "round " << round;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Fuzz, ControllerFrameParserTotal) {
  Rng rng{0xF024};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 200));
    (void)phy::parse_controller_frame(random_bytes(size, rng));
  }
  SUCCEED();  // no crash is the assertion
}

TEST(Fuzz, ReportDecoderTotal) {
  Rng rng{0xF025};
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 100));
    const auto bytes = random_bytes(size, rng);
    if (const auto r = mac::decode_report(bytes)) {
      ++accepted;
      // Accepted reports must be internally consistent.
      EXPECT_LE(r->gains.size(), 255u);
    }
  }
  // The report format has no checksum; acceptance just means the length
  // field fit. It must still never crash, and consistency holds above.
  EXPECT_GE(accepted, 0);
}

TEST(Fuzz, SegmentDecoderTotal) {
  Rng rng{0xF026};
  for (int trial = 0; trial < 1000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 64));
    const auto bytes = random_bytes(size, rng);
    const auto seg = mac::decode_segment(bytes);
    if (!bytes.empty()) {
      ASSERT_TRUE(seg.has_value());
      EXPECT_EQ(seg->data.size(), bytes.size() - 1);
    } else {
      EXPECT_FALSE(seg.has_value());
    }
  }
}

TEST(Fuzz, IniParserTotalOnGarbage) {
  // Every reader of scenario text is total: random bytes, and
  // schema-shaped files (known keys, random values, extreme indices).
  const auto read_all = [](const std::string& text) {
    const auto cfg = IniConfig::parse(text);
    (void)cfg.items().size();
    (void)scenario::parse_spec(text);
    (void)scenario::parse_campaign(text);
  };
  Rng rng{0xF027};
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 500));
    for (std::size_t i = 0; i < size; ++i) {
      text.push_back(static_cast<char>(rng.uniform_int(1, 127)));
    }
    read_all(text);
  }

  const char* const keys[] = {
      "scenario.name", "scenario.kind", "scenario.seed", "scenario.epochs",
      "system.testbed", "system.kappa", "room.width", "grid.rows",
      "grid.pitch", "grid.mount_height", "led.half_angle_deg",
      "rx.placement", "rx.count", "rx.height", "rx.margin", "rx.x1",
      "rx.y2", "rx.x0", "rx.x65", "rx.x99999999999999999999", "rx.x",
      "illum.target_lux", "illum.leds_per_tx", "blockage.radius1",
      "blockage.height16", "blockage.x17", "faults.led_fail_fraction",
      "faults.seed", "campaign.instances", "campaign.quick_instances",
      "sweep.system.kappa", "sweep.grid", "sweep.rx.count", "bogus.key"};
  const char* const values[] = {
      "", "0", "1", "2", "-1", "0x", "0x10", "1e308", "nan", "inf", "0.5",
      "2.5", "1000", "65", "18446744073709551616", "soak", "uniform",
      "experimental", "2 | 3", "1.0 | | 2.0", "grid.rows=4 grid.cols=4",
      "grid.rows=", "=", "a b c"};
  const auto pick = [&rng](const auto& list) {
    const auto n = static_cast<std::int64_t>(std::size(list));
    return std::string{list[rng.uniform_int(0, n - 1)]};
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const auto lines = rng.uniform_int(0, 12);
    for (std::int64_t line = 0; line < lines; ++line) {
      const std::string key = pick(keys);
      const auto dot = key.find('.');
      text += "[" + key.substr(0, dot) + "]\n" + key.substr(dot + 1) +
              " = " + pick(values) + "\n";
    }
    read_all(text);
  }
  SUCCEED();  // no crash is the assertion
}

}  // namespace
}  // namespace densevlc
