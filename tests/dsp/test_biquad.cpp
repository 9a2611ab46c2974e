// Tests for biquad sections and cascades.
#include "dsp/biquad.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "dsp/dsp_kernels.hpp"

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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Runs `block`'s sections through the front end's quad kernel, on both
/// backends, as four lanes with their own inputs and gains, the gain
/// before each possible section and after the last, and holds every lane
/// to a Biquad::step chain with that gain multiply: samples and the
/// written-back states, bit for bit. `block` is left unchanged.
void expect_quad_matches_steps(const BiquadCascade& block,
                               const std::vector<double>& x, Rng& rng) {
  const std::size_t depth = block.section_count();
  double coeffs[kMaxBiquadSections * 20];
  double states[kMaxBiquadSections * 8];
  for (std::size_t gain_at = 0; gain_at <= depth; ++gain_at) {
    std::vector<double> lanes[4];
    double gains[4];
    std::vector<double> expect[4];
    std::vector<Biquad> chains[4];
    for (std::size_t l = 0; l < 4; ++l) {
      gains[l] = rng.uniform(0.5, 30.0);
      lanes[l] = x;
      std::rotate(lanes[l].begin(), lanes[l].begin() + 37 * l,
                  lanes[l].end());
      for (std::size_t s = 0; s < depth; ++s) {
        chains[l].push_back(block.section(s));
        const BiquadCoeffs& c = block.section(s).coeffs();
        const double row[5] = {c.b0, c.b1, c.b2, c.a1, c.a2};
        for (std::size_t k = 0; k < 5; ++k) coeffs[s * 20 + k * 4 + l] = row[k];
      }
      expect[l] = lanes[l];
      for (double& v : expect[l]) {
        for (std::size_t s = 0; s < depth; ++s) {
          if (s == gain_at) v = gains[l] * v;
          v = chains[l][s].step(v);
        }
        if (gain_at == depth) v = gains[l] * v;
      }
    }
    const bool was_forced = simd::force_scalar();
    for (const bool force : {false, true}) {
      simd::set_force_scalar(force);
      std::vector<double> got[4] = {lanes[0], lanes[1], lanes[2], lanes[3]};
      double* const ptrs[4] = {got[0].data(), got[1].data(), got[2].data(),
                               got[3].data()};
      for (std::size_t s = 0; s < depth; ++s) {
        for (std::size_t l = 0; l < 4; ++l) {
          states[s * 8 + l] = block.section(s).state_s1();
          states[s * 8 + 4 + l] = block.section(s).state_s2();
        }
      }
      if (simd::use_vector_kernels()) {
        detail::filter_quad_vec(ptrs, x.size(), coeffs, states, depth,
                                gain_at, gains);
      } else {
        detail::filter_quad_kernel<simd::ScalarBackend>(
            ptrs, x.size(), coeffs, states, depth, gain_at, gains);
      }
      const char* leg = force ? " forced scalar" : " native";
      for (std::size_t l = 0; l < 4; ++l) {
        for (std::size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(bits(got[l][i]), bits(expect[l][i]))
              << "depth " << depth << " gain at " << gain_at << " lane " << l
              << " i " << i << leg;
        }
        for (std::size_t s = 0; s < depth; ++s) {
          EXPECT_EQ(bits(states[s * 8 + l]), bits(chains[l][s].state_s1()))
              << "depth " << depth << " lane " << l << " section " << s << leg;
          EXPECT_EQ(bits(states[s * 8 + 4 + l]),
                    bits(chains[l][s].state_s2()))
              << "depth " << depth << " lane " << l << " section " << s << leg;
        }
      }
    }
    simd::set_force_scalar(was_forced);
  }
}

TEST(Cascade, ProcessBlockMatchesStepChain) {
  // The sample-major block kernel against a per-sample step() chain, at
  // depths on both sides of the kernel's section-group size, from random
  // (stable) coefficients and a non-zero starting state, over blocks split
  // at arbitrary points so the delay lines carry across calls, and over
  // the whole input in one call. Cascades the front end's quad kernel
  // takes also run through it as all four of its lanes, under both SIMD
  // dispatch legs. Every sample is compared before any quantization, so
  // one ulp of drift fails.
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
    if (depth >= 1 && depth <= kMaxBiquadSections) {
      expect_quad_matches_steps(block, x, rng);
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

TEST(Cascade, GainChainMatchesThreePasses) {
  // The one-lane fused pass against its definition: the first cascade's
  // block pass, the gain multiply, the second cascade's block pass. Splits
  // put the gain inside, at the edge of and past the kernel's section
  // groups, and leave either cascade empty; the pass is cut at arbitrary
  // points so the delay lines carry across calls.
  Rng rng{0xB1C1};
  const auto random_cascade = [&](std::size_t depth) {
    std::vector<BiquadCoeffs> coeffs(depth);
    for (auto& c : coeffs) {
      c.b0 = rng.uniform(-1.0, 1.0);
      c.b1 = rng.uniform(-1.0, 1.0);
      c.b2 = rng.uniform(-1.0, 1.0);
      c.a1 = rng.uniform(-0.5, 0.5);
      c.a2 = rng.uniform(-0.5, 0.5);
    }
    BiquadCascade cascade{coeffs};
    for (std::size_t s = 0; s < depth; ++s) {
      cascade.section(s).set_state(rng.uniform(-1.0, 1.0),
                                   rng.uniform(-1.0, 1.0));
    }
    return cascade;
  };
  const std::size_t splits[][2] = {{1, 4}, {0, 5}, {3, 0}, {0, 0},
                                   {8, 1}, {7, 2}, {1, 12}, {9, 3}};
  for (const auto& split : splits) {
    BiquadCascade first = random_cascade(split[0]);
    BiquadCascade second = random_cascade(split[1]);
    const double gain = rng.uniform(0.5, 30.0);
    std::vector<double> x(301);
    for (double& v : x) v = rng.uniform(-2.0, 2.0);

    BiquadCascade ref_first = first;
    BiquadCascade ref_second = second;
    std::vector<double> expect = x;
    ref_first.process_block(expect);
    for (double& v : expect) v = gain * v;
    ref_second.process_block(expect);

    std::size_t at = 0;
    while (at < x.size()) {
      const auto len = std::min<std::size_t>(
          x.size() - at, static_cast<std::size_t>(rng.uniform_int(0, 90)));
      process_gain_chain(first, gain, second,
                         std::span<double>{x}.subspan(at, len));
      at += len;
    }
    const std::string where = "split " + std::to_string(split[0]) + "+" +
                              std::to_string(split[1]);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits(x[i]), bits(expect[i])) << where << " i " << i;
    }
    for (const auto& [got, ref] :
         {std::pair{&first, &ref_first}, std::pair{&second, &ref_second}}) {
      for (std::size_t s = 0; s < got->section_count(); ++s) {
        EXPECT_EQ(bits(got->section(s).state_s1()),
                  bits(ref->section(s).state_s1()))
            << where << " section " << s;
        EXPECT_EQ(bits(got->section(s).state_s2()),
                  bits(ref->section(s).state_s2()))
            << where << " section " << s;
      }
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
