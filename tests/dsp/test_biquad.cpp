// Tests for biquad sections and cascades.
#include "dsp/biquad.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace densevlc::dsp {
namespace {

TEST(Biquad, IdentityPassesThrough) {
  Biquad b{BiquadCoeffs{}};  // b0 = 1, everything else 0
  for (double x : {1.0, -2.0, 0.5, 0.0}) {
    EXPECT_DOUBLE_EQ(b.step(x), x);
  }
}

TEST(Biquad, PureDelayLine) {
  BiquadCoeffs c;
  c.b0 = 0.0;
  c.b1 = 1.0;  // y[n] = x[n-1]
  Biquad b{c};
  EXPECT_DOUBLE_EQ(b.step(3.0), 0.0);
  EXPECT_DOUBLE_EQ(b.step(5.0), 3.0);
  EXPECT_DOUBLE_EQ(b.step(0.0), 5.0);
}

TEST(Biquad, OnePoleDecays) {
  BiquadCoeffs c;
  c.b0 = 1.0;
  c.a1 = -0.5;  // y[n] = x[n] + 0.5 y[n-1]
  Biquad b{c};
  EXPECT_DOUBLE_EQ(b.step(1.0), 1.0);
  EXPECT_DOUBLE_EQ(b.step(0.0), 0.5);
  EXPECT_DOUBLE_EQ(b.step(0.0), 0.25);
}

TEST(Biquad, ResetClearsState) {
  BiquadCoeffs c;
  c.b0 = 1.0;
  c.a1 = -0.9;
  Biquad b{c};
  b.step(1.0);
  b.reset();
  EXPECT_DOUBLE_EQ(b.step(0.0), 0.0);
}

TEST(Cascade, EmptyCascadeIsIdentity) {
  BiquadCascade c{std::vector<BiquadCoeffs>{}};
  EXPECT_DOUBLE_EQ(c.step(7.0), 7.0);
}

TEST(Cascade, TwoSectionsCompose) {
  // Two pure one-sample delays = two-sample delay.
  BiquadCoeffs d;
  d.b0 = 0.0;
  d.b1 = 1.0;
  BiquadCascade c{{d, d}};
  EXPECT_DOUBLE_EQ(c.step(1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.step(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.step(0.0), 1.0);
}

TEST(Cascade, ProcessKeepsRateAndLength) {
  BiquadCascade c{std::vector<BiquadCoeffs>{BiquadCoeffs{}}};
  Waveform in;
  in.sample_rate_hz = 48000.0;
  in.samples = {1.0, 2.0, 3.0};
  const Waveform out = c.process(in);
  EXPECT_EQ(out.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(out.sample_rate_hz, 48000.0);
  EXPECT_DOUBLE_EQ(out.samples[1], 2.0);
}

TEST(Cascade, MagnitudeOfIdentityIsOne) {
  BiquadCascade c{std::vector<BiquadCoeffs>{BiquadCoeffs{}}};
  for (double f : {10.0, 1000.0, 20000.0}) {
    EXPECT_NEAR(c.magnitude_at(f, 48000.0), 1.0, 1e-12);
  }
}

TEST(Cascade, MagnitudeOfMovingAverageNullsNyquist) {
  // y[n] = (x[n] + x[n-1]) / 2 has a zero at Nyquist.
  BiquadCoeffs c;
  c.b0 = 0.5;
  c.b1 = 0.5;
  BiquadCascade cas{{c}};
  EXPECT_NEAR(cas.magnitude_at(24000.0, 48000.0), 0.0, 1e-12);
  EXPECT_NEAR(cas.magnitude_at(0.0, 48000.0), 1.0, 1e-12);
}

TEST(Cascade, ProcessBlockMatchesStepChain) {
  // The sample-major block kernel against a per-sample step() chain, at
  // depths on both sides of the kernel's section-group size, from random
  // (stable) coefficients and a non-zero starting state, over blocks split
  // at arbitrary points so the delay lines carry across calls, and over
  // the whole input in one call. Cascades the x4 kernel takes also run as
  // all four of its lanes, under both SIMD dispatch legs. Every sample is
  // compared before any quantization, so one ulp of drift fails.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Rng rng{0xB1C0};
  for (const std::size_t depth : {0u, 1u, 4u, 8u, 9u, 12u}) {
    std::vector<BiquadCoeffs> coeffs(depth);
    for (auto& c : coeffs) {
      c.b0 = rng.uniform(-1.0, 1.0);
      c.b1 = rng.uniform(-1.0, 1.0);
      c.b2 = rng.uniform(-1.0, 1.0);
      c.a1 = rng.uniform(-0.5, 0.5);
      c.a2 = rng.uniform(-0.5, 0.5);
    }
    BiquadCascade block{coeffs};
    std::vector<Biquad> chain;
    for (std::size_t s = 0; s < depth; ++s) {
      const double s1 = rng.uniform(-1.0, 1.0);
      const double s2 = rng.uniform(-1.0, 1.0);
      block.section(s).set_state(s1, s2);
      chain.emplace_back(coeffs[s]);
      chain.back().set_state(s1, s2);
    }

    std::vector<double> x(517);
    for (double& v : x) v = rng.uniform(-2.0, 2.0);
    std::vector<double> expect = x;
    for (double& v : expect) {
      for (auto& sec : chain) v = sec.step(v);
    }

    BiquadCascade one_call = block;
    std::vector<double> whole = x;
    one_call.process_block(whole);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits(whole[i]), bits(expect[i]))
          << "depth " << depth << " one call, i " << i;
    }
    if (depth <= kMaxBiquadSections) {
      const bool was_forced = simd::force_scalar();
      for (const bool force : {false, true}) {
        simd::set_force_scalar(force);
        BiquadCascade lanes[4] = {block, block, block, block};
        BiquadCascade* const quad[4] = {&lanes[0], &lanes[1], &lanes[2],
                                        &lanes[3]};
        std::vector<double> interleaved(4 * x.size());
        for (std::size_t i = 0; i < interleaved.size(); ++i) {
          interleaved[i] = x[i / 4];
        }
        process_cascades_x4(quad, interleaved);
        for (std::size_t i = 0; i < interleaved.size(); ++i) {
          ASSERT_EQ(bits(interleaved[i]), bits(expect[i / 4]))
              << "depth " << depth << " x4 lane " << i % 4 << " i " << i / 4
              << (force ? " forced scalar" : " native");
        }
      }
      simd::set_force_scalar(was_forced);
    }

    std::size_t at = 0;
    while (at < x.size()) {
      const auto len = std::min<std::size_t>(
          x.size() - at, static_cast<std::size_t>(rng.uniform_int(0, 90)));
      block.process_block(std::span<double>{x}.subspan(at, len));
      at += len;
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits(x[i]), bits(expect[i])) << "depth " << depth << " i " << i;
    }
    for (std::size_t s = 0; s < depth; ++s) {
      EXPECT_EQ(bits(block.section(s).state_s1()), bits(chain[s].state_s1()))
          << "depth " << depth << " section " << s;
      EXPECT_EQ(bits(block.section(s).state_s2()), bits(chain[s].state_s2()))
          << "depth " << depth << " section " << s;
    }
  }
}

TEST(Waveform, DurationFromRate) {
  Waveform w;
  w.sample_rate_hz = 1000.0;
  w.samples.assign(500, 0.0);
  EXPECT_DOUBLE_EQ(w.duration(), 0.5);
  Waveform empty;
  EXPECT_DOUBLE_EQ(empty.duration(), 0.0);
}

}  // namespace
}  // namespace densevlc::dsp
