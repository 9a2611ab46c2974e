// Differential suite for the zero-allocation PHY fast paths.
//
// Every LUT/arena rework is held bit-for-bit against the frozen scalar
// baselines in bench/phy_reference.{hpp,cpp}: same chips, same decodes,
// same violation and correction counts, including Reed-Solomon error
// bursts up to and beyond the correction capacity. The binary also links
// bench/alloc_hook.cpp, so the steady-state loops can assert a literal
// zero heap allocations on the DVLC_HOT paths.
//
// The whole suite is parameterized over the SIMD dispatch: every test
// runs once with the native vector backend and once forced onto the
// scalar kernels (simd::set_force_scalar). Both legs compare against the
// same frozen reference, so the float kernels' scalar and vector outputs
// (front end, ADC, preamble search) are pinned bit-identical to each
// other transitively. The byte codec (Manchester, interleaver, RS, frame)
// has no dispatch site, so its tests run the same code on both legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "dsp/adc.hpp"
#include "dsp/correlate.hpp"
#include "dsp/waveform.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"
#include "phy/frontend.hpp"
#include "phy/interleaver.hpp"
#include "phy/manchester.hpp"
#include "phy/ook.hpp"
#include "phy/reed_solomon.hpp"
#include "phy_reference.hpp"

namespace densevlc {
namespace {

/// Param = force-scalar: false runs the native (vector) dispatch, true
/// pins every kernel onto the scalar backend.
class FastPath : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override { simd::set_force_scalar(false); }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, FastPath, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "ForcedScalar" : "NativeSimd";
    });

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return bytes;
}

phy::MacFrame random_frame(std::size_t payload, Rng& rng) {
  phy::MacFrame f;
  f.dst = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.src = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.payload = random_bytes(payload, rng);
  return f;
}

// --- Manchester ----------------------------------------------------------

TEST_P(FastPath, ManchesterEncodeMatchesScalarReference) {
  Rng rng{0xA1};
  for (std::size_t n : {0, 1, 2, 9, 64, 257, 1125}) {
    const auto bytes = random_bytes(n, rng);
    const auto ref_chips =
        bench::ref::manchester_encode(bench::ref::bytes_to_bits(bytes));
    std::vector<phy::Chip> chips(16 * n);
    phy::manchester_encode_bytes(bytes, chips);
    EXPECT_EQ(chips, ref_chips) << "n=" << n;
  }
}

TEST_P(FastPath, ManchesterLenientDecodeMatchesScalarOnCorruptChips) {
  Rng rng{0xA2};
  for (int trial = 0; trial < 20; ++trial) {
    const auto bytes = random_bytes(200, rng);
    std::vector<phy::Chip> chips(16 * bytes.size());
    phy::manchester_encode_bytes(bytes, chips);
    // Flip a handful of chips: creates coding violations and bit errors.
    for (int e = 0; e < trial; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(chips.size()) - 1));
      chips[at] = chips[at] == phy::Chip::kHigh ? phy::Chip::kLow
                                                : phy::Chip::kHigh;
    }
    const auto ref_dec = bench::ref::manchester_decode_lenient(chips);
    const auto ref_bytes = bench::ref::bits_to_bytes(ref_dec.bits);
    ASSERT_TRUE(ref_bytes.has_value());
    std::vector<std::uint8_t> fast(bytes.size());
    const std::size_t violations =
        phy::manchester_decode_bytes_lenient(chips, fast);
    EXPECT_EQ(fast, *ref_bytes) << "trial=" << trial;
    EXPECT_EQ(violations, ref_dec.violations) << "trial=" << trial;
  }
}

// --- Interleaver ---------------------------------------------------------

TEST_P(FastPath, InterleaverMatchesScalarReference) {
  Rng rng{0xB1};
  for (std::size_t n : {0, 1, 7, 200, 648, 1000}) {
    const auto data = random_bytes(n, rng);
    for (std::size_t depth : {0, 1, 2, 3, 8}) {
      EXPECT_EQ(phy::interleave(data, depth),
                bench::ref::interleave(data, depth))
          << "n=" << n << " depth=" << depth;
      EXPECT_EQ(phy::deinterleave(data, depth),
                bench::ref::deinterleave(data, depth))
          << "n=" << n << " depth=" << depth;
    }
  }
}

// --- Reed-Solomon --------------------------------------------------------

TEST_P(FastPath, RsEncodeMatchesScalarReference) {
  Rng rng{0xC1};
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  for (std::size_t n : {1, 8, 50, 200, 239}) {
    const auto msg = random_bytes(n, rng);
    EXPECT_EQ(rs.encode(msg), ref_rs.encode(msg)) << "n=" << n;
  }
}

TEST_P(FastPath, RsErrorBurstDecodesMatchScalarReference) {
  Rng rng{0xC2};
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  const auto msg = random_bytes(200, rng);
  const auto clean = ref_rs.encode(msg);
  phy::RsDecodeResult dec;
  phy::RsScratch scratch;
  // Contiguous bursts of 0..10 errors: 9 and 10 exceed the capacity of 8
  // and must fail identically on both paths.
  for (std::size_t burst = 0; burst <= 10; ++burst) {
    auto cw = clean;
    const std::size_t start = 40 + 3 * burst;
    for (std::size_t e = 0; e < burst; ++e) {
      cw[start + e] = static_cast<std::uint8_t>(cw[start + e] ^ 0xFF);
    }
    const auto ref_dec = ref_rs.decode(cw);
    const bool ok = rs.decode_into(cw, dec, scratch);
    ASSERT_EQ(ok, ref_dec.has_value()) << "burst=" << burst;
    EXPECT_EQ(ok, burst <= rs.correction_capacity()) << "burst=" << burst;
    if (ok) {
      EXPECT_EQ(dec.data, ref_dec->data) << "burst=" << burst;
      EXPECT_EQ(dec.corrected_errors, ref_dec->corrected_errors)
          << "burst=" << burst;
      EXPECT_EQ(dec.data, msg) << "burst=" << burst;
    }
  }
}

TEST_P(FastPath, RsScatteredErrorsMatchScalarReference) {
  Rng rng{0xC3};
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  phy::RsDecodeResult dec;
  phy::RsScratch scratch;
  for (int trial = 0; trial < 25; ++trial) {
    const auto msg = random_bytes(
        static_cast<std::size_t>(rng.uniform_int(1, 200)), rng);
    auto cw = ref_rs.encode(msg);
    const auto n_err = static_cast<std::size_t>(rng.uniform_int(0, 10));
    for (std::size_t e = 0; e < n_err; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cw.size()) - 1));
      cw[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto ref_dec = ref_rs.decode(cw);
    const bool ok = rs.decode_into(cw, dec, scratch);
    ASSERT_EQ(ok, ref_dec.has_value()) << "trial=" << trial;
    if (ok) {
      EXPECT_EQ(dec.data, ref_dec->data) << "trial=" << trial;
      EXPECT_EQ(dec.corrected_errors, ref_dec->corrected_errors)
          << "trial=" << trial;
    }
  }
}

// --- Frame + codec -------------------------------------------------------

TEST_P(FastPath, FrameSerializationMatchesScalarReference) {
  Rng rng{0xD1};
  for (std::size_t payload : {0, 1, 199, 200, 201, 600, 1500}) {
    const auto f = random_frame(payload, rng);
    const auto wire = phy::serialize_frame(f);
    EXPECT_EQ(wire, bench::ref::serialize_frame(f)) << "payload=" << payload;
    const auto parsed = phy::parse_frame(wire);
    const auto ref_parsed = bench::ref::parse_frame(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(ref_parsed.has_value());
    EXPECT_EQ(parsed->frame, ref_parsed->frame);
    EXPECT_EQ(parsed->corrected_bytes, ref_parsed->corrected_bytes);
  }
}

TEST_P(FastPath, CodecChipPipelineMatchesScalarReference) {
  Rng rng{0xD2};
  std::vector<phy::Chip> chips;
  std::vector<std::uint8_t> bytes;
  for (std::size_t payload : {0, 1, 200, 600}) {
    for (std::size_t depth : {0, 1, 3}) {
      const auto f = random_frame(payload, rng);
      const auto ref_chips = bench::ref::codec_encode_chips(f, depth);
      const phy::FrameCodec codec{depth};
      const auto wire = codec.encode(f);
      arena_resize(chips, wire.size() * 16);
      phy::manchester_encode_bytes(wire, chips);
      EXPECT_EQ(chips, ref_chips) << "payload=" << payload
                                  << " depth=" << depth;

      const auto ref_parsed = bench::ref::codec_decode_chips(chips, depth);
      arena_resize(bytes, chips.size() / 16);
      phy::manchester_decode_bytes_lenient(chips, bytes);
      const auto parsed = codec.decode(bytes);
      ASSERT_TRUE(parsed.has_value());
      ASSERT_TRUE(ref_parsed.has_value());
      EXPECT_EQ(parsed->frame, ref_parsed->frame);
      EXPECT_EQ(parsed->frame.payload, f.payload);
    }
  }
}

// --- OOK / front end -----------------------------------------------------

TEST_P(FastPath, ReceiveFrameIntoMatchesValueApi) {
  Rng rng{0xE1};
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};
  // One lane at a time through a batch scratch kept across frames of
  // different sizes, against the value form's fresh scratch.
  phy::OokDemodulator::BatchRxScratch rxs;
  phy::OokDemodulator::RxResult rx;
  std::uint8_t ok = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto f = random_frame(120 + 100 * (trial % 3), rng);
    const auto wf = mod.modulate_frame(f, false, 0, 8);
    std::vector<double> signal = wf.samples;
    for (double& v : signal) v -= params.bias_current_a;  // ideal AC coupling
    const auto value_rx = demod.receive_frame(signal);
    const std::span<const double> lane[] = {signal};
    ASSERT_EQ(demod.receive_batch_into(lane, {&rx, 1}, {&ok, 1}, rxs), 1u);
    ASSERT_TRUE(value_rx.has_value());
    EXPECT_EQ(rx.parsed.frame, value_rx->parsed.frame);
    EXPECT_EQ(rx.parsed.corrected_bytes, value_rx->parsed.corrected_bytes);
    EXPECT_EQ(rx.preamble_at, value_rx->preamble_at);
    EXPECT_EQ(rx.correlation, value_rx->correlation);
    EXPECT_EQ(rx.manchester_violations, value_rx->manchester_violations);
    EXPECT_EQ(rx.parsed.frame.payload, f.payload);
  }
}

TEST_P(FastPath, FrontEndProcessIntoMatchesValueApi) {
  phy::FrontEndConfig cfg{};  // default noisy configuration
  phy::ReceiverFrontEnd fe_a{cfg, Rng{99}};
  phy::ReceiverFrontEnd fe_b{cfg, Rng{99}};
  dsp::Waveform optical;
  optical.sample_rate_hz = 1e6;
  optical.samples.assign(20000, 0.0);
  for (std::size_t i = 0; i < optical.samples.size(); ++i) {
    optical.samples[i] = (i / 10) % 2 == 0 ? 2.5e-6 : 0.0;
  }
  // fe_b runs as one lane of process_batch_into on kept buffers.
  dsp::Waveform out_b;
  phy::ReceiverFrontEnd::BatchScratch scratch;
  phy::ReceiverFrontEnd* const fe_lane[] = {&fe_b};
  const dsp::Waveform* const in_lane[] = {&optical};
  dsp::Waveform* const out_lane[] = {&out_b};
  // Two back-to-back calls: filter and RNG state must stay in lockstep.
  // The second, on warm buffers, must not touch the heap.
  for (int pass = 0; pass < 2; ++pass) {
    const auto out_a = fe_a.process(optical);
    const std::uint64_t before = bench::alloc_count();
    phy::ReceiverFrontEnd::process_batch_into(fe_lane, in_lane, out_lane,
                                              scratch);
    if (pass > 0) {
      EXPECT_EQ(bench::alloc_count() - before, 0u);
    }
    EXPECT_EQ(out_a.samples, out_b.samples) << "pass=" << pass;
    EXPECT_EQ(out_a.sample_rate_hz, out_b.sample_rate_hz);
  }
}

TEST_P(FastPath, AdcRoundTripMatchesQuantize) {
  // The elementwise ADC kernel against the per-sample body it replaced,
  // code_to_volts(quantize(v + offset)) - offset, bit for bit: every bin
  // edge and both endpoints +-1 and +-2 ulp, out-of-range values, +-inf,
  // NaN and -0.0, on the front end's default converter and on 8- and
  // 16-bit ones with min_volts != 0, over every length 0-9 and 4k + r.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const dsp::AdcConfig& cfg :
       {dsp::AdcConfig{}, dsp::AdcConfig{1e6, 8, 0.5, 2.5},
        dsp::AdcConfig{1e6, 16, -1.2, 2.1}}) {
    const dsp::Adc adc{cfg};
    const double top = static_cast<double>((std::uint64_t{1} << cfg.bits) - 1);
    const double span = cfg.max_volts - cfg.min_volts;
    std::vector<double> probes{cfg.min_volts, cfg.max_volts,
                               cfg.min_volts - 1.0, cfg.max_volts + 1.0,
                               -kInf, kInf, -1e300, 1e300,
                               std::numeric_limits<double>::quiet_NaN(),
                               -0.0, 0.0};
    for (double k = 0.0; k <= top; k += 1.0) {
      probes.push_back(cfg.min_volts + (k + 0.5) / top * span);
    }
    for (std::size_t i = 0, n = probes.size(); i < n; ++i) {
      double down = probes[i];
      double up = probes[i];
      for (int step = 0; step < 2; ++step) {
        down = std::nextafter(down, -kInf);
        up = std::nextafter(up, kInf);
        probes.push_back(down);
        probes.push_back(up);
      }
    }
    // At offset 0 the probes hit the edges themselves; the mid-rail
    // offset is what the front end passes.
    const double mid =
        adc.code_to_volts(adc.quantize((cfg.min_volts + cfg.max_volts) / 2));
    for (const double offset : {0.0, mid}) {
      std::vector<double> expect = probes;
      for (double& v : expect) {
        v = adc.code_to_volts(adc.quantize(v + offset)) - offset;
      }
      const auto check = [&](std::size_t at, std::size_t len) {
        std::vector<double> got(probes.begin() + at,
                                probes.begin() + at + len);
        adc.round_trip_into(got, offset);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(expect[at + i]))
              << "bits " << cfg.bits << " offset " << offset << " v "
              << probes[at + i] << " len " << len;
        }
      };
      check(0, probes.size());
      for (std::size_t len = 0; len <= 9; ++len) {
        for (std::size_t at = 0; at < 4; ++at) check(at, len);
      }
      for (std::size_t r = 0; r < 4; ++r) check(5, 4 * 97 + r);
    }
  }
}

// --- Preamble search -----------------------------------------------------

/// Runs the pruned search and the frozen full scan on one input and
/// requires the same answer bit for bit; returns the full scan's answer.
std::optional<dsp::PeakDetection> expect_search_matches(
    std::span<const double> signal, std::span<const double> tpl,
    double threshold, dsp::CorrelateScratch& scratch,
    const std::string& what) {
  const auto ref = bench::ref::detect_pattern(signal, tpl, threshold);
  const auto got = dsp::detect_pattern_into(signal, tpl, threshold, scratch);
  EXPECT_EQ(got.has_value(), ref.has_value()) << what;
  if (got && ref) {
    EXPECT_EQ(got->index, ref->index) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got->score),
              std::bit_cast<std::uint64_t>(ref->score))
        << what << " score " << got->score << " vs " << ref->score;
  }
  return ref;
}

/// Chip waveform at `spc` samples per chip as optical power: the LED
/// current levels scaled by `watts_per_amp`, with `guard` idle chips on
/// either side.
dsp::Waveform chips_as_optical(std::span<const phy::Chip> chips,
                               std::size_t spc, double chip_rate_hz,
                               std::size_t guard, double watts_per_amp) {
  phy::OokParams params{};
  params.chip_rate_hz = chip_rate_hz;
  params.samples_per_chip = spc;
  const phy::OokModulator mod{params};
  dsp::Waveform wf = mod.idle(guard);
  const dsp::Waveform body = mod.modulate(chips);
  wf.samples.insert(wf.samples.end(), body.samples.begin(),
                    body.samples.end());
  const dsp::Waveform tail = mod.idle(guard);
  wf.samples.insert(wf.samples.end(), tail.samples.begin(),
                    tail.samples.end());
  for (double& v : wf.samples) v *= watts_per_amp;
  return wf;
}

TEST_P(FastPath, PreambleSearchMatchesFullScan) {
  Rng rng{0xF1};
  const phy::OokParams params{};
  const phy::FrontEndConfig fe_cfg{};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  fe_cfg.adc.sample_rate_hz};
  const std::vector<double> tpl = demod.preamble_template();
  dsp::CorrelateScratch scratch;  // shared: no state may leak across calls
  std::size_t found = 0;
  std::size_t missed = 0;
  const auto tally = [&](const std::optional<dsp::PeakDetection>& ref) {
    ++(ref ? found : missed);
  };

  // Frames through the real front end at strong, marginal and
  // below-threshold gains (optical watts per amp of LED current).
  std::vector<double> strong_rx;
  for (const double gain : {1e-6, 8e-8, 3e-8, 1.5e-8, 5e-9}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto f = random_frame(60 + 40 * seed, rng);
      const auto chips = phy::frame_to_chips(f);
      const auto optical = chips_as_optical(chips, params.samples_per_chip,
                                            params.chip_rate_hz, 16, gain);
      phy::ReceiverFrontEnd fe{fe_cfg, Rng{seed + 1}};
      const auto rx = fe.process(optical);
      for (const double threshold : {0.6, 0.3}) {
        tally(expect_search_matches(
            rx.samples, tpl, threshold, scratch,
            "frame gain " + std::to_string(gain) + " seed " +
                std::to_string(seed) + " thr " + std::to_string(threshold)));
      }
      if (gain == 1e-6 && seed == 0) strong_rx = rx.samples;
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_GT(missed, 0u);

  // A threshold exactly at the peak score still qualifies it; one ulp
  // above rejects every position.
  const auto peak = bench::ref::detect_pattern(strong_rx, tpl, 0.6);
  ASSERT_TRUE(peak.has_value());
  EXPECT_TRUE(expect_search_matches(strong_rx, tpl, peak->score, scratch,
                                    "threshold == peak")
                  .has_value());
  EXPECT_FALSE(expect_search_matches(
                   strong_rx, tpl,
                   std::nextafter(peak->score,
                                  std::numeric_limits<double>::infinity()),
                   scratch, "threshold one ulp above peak")
                   .has_value());

  // Pattern as long as the signal: a single window position.
  const std::span<const double> one_window{strong_rx.data() + peak->index,
                                           tpl.size()};
  EXPECT_TRUE(
      expect_search_matches(one_window, tpl, 0.6, scratch, "single window")
          .has_value());
  expect_search_matches(std::span<const double>{strong_rx}.first(tpl.size()),
                        tpl, -1.0, scratch, "single noise window");

  // Pure noise, including thresholds every position reaches (the argmax
  // then rests on the lower bounds alone).
  std::vector<double> noise(6000);
  for (double& v : noise) v = rng.gaussian(0.0, 1.0);
  for (const double threshold : {0.6, 0.1, 0.0, -1.0}) {
    expect_search_matches(noise, tpl, threshold, scratch,
                          "noise thr " + std::to_string(threshold));
  }

  // Exactly periodic integer signal: window sums are exact, so every
  // period ties bit for bit and the first index must win.
  std::vector<double> block(tpl.size() + 77);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<double>(rng.uniform_int(-2, 2)) +
               (i < tpl.size() ? 3.0 * tpl[i] : 0.0);
  }
  std::vector<double> periodic;
  for (int rep = 0; rep < 5; ++rep) {
    periodic.insert(periodic.end(), block.begin(), block.end());
  }
  for (const double threshold : {0.6, -1.0}) {
    const auto ref = expect_search_matches(
        periodic, tpl, threshold, scratch,
        "periodic thr " + std::to_string(threshold));
    ASSERT_TRUE(ref.has_value());
    EXPECT_LT(ref->index, block.size());
  }

  // Constant stretches (var == 0 windows score exactly 0) around one
  // copy of the template, and an all-constant signal whose rolling
  // variance is rounding residue.
  std::vector<double> padded(3000, 0.0);
  for (std::size_t j = 0; j < tpl.size(); ++j) padded[1200 + j] = tpl[j];
  std::vector<double> flat(3000, 3.7);
  for (const double threshold : {0.6, 0.0, -1.0}) {
    const std::string thr = " thr " + std::to_string(threshold);
    expect_search_matches(padded, tpl, threshold, scratch, "padded" + thr);
    expect_search_matches(flat, tpl, threshold, scratch, "flat" + thr);
  }

  // Large DC offset under a tiny swing: running sums are huge next to
  // the mean-removed dot products. At 1e3 the reference still resolves
  // the copy; at 1e6 its rolling variance is rounding residue.
  for (const double offset : {1e3, 1e6}) {
    std::vector<double> dc(4000);
    for (double& v : dc) v = offset + 1e-4 * rng.gaussian(0.0, 1.0);
    for (std::size_t j = 0; j < tpl.size(); ++j) dc[2500 + j] += 1e-3 * tpl[j];
    const auto ref = expect_search_matches(
        dc, tpl, 0.6, scratch, "dc offset " + std::to_string(offset));
    if (offset == 1e3) {
      ASSERT_TRUE(ref.has_value());
      EXPECT_EQ(ref->index, 2500u);
    }
  }

  // The channel prober's template: its DC-balanced 64-chip LFSR burst.
  std::vector<phy::Chip> probe;
  unsigned lfsr = 0xACE1u;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned bit =
        ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1u;
    lfsr = (lfsr >> 1) | (bit << 15);
    probe.push_back(bit ? phy::Chip::kHigh : phy::Chip::kLow);
    probe.push_back(bit ? phy::Chip::kLow : phy::Chip::kHigh);
  }
  const std::vector<double> probe_tpl = demod.pattern_template(probe);
  for (const double gain : {1e-6, 2e-8, 5e-9}) {
    const auto optical = chips_as_optical(probe, params.samples_per_chip,
                                          params.chip_rate_hz, 16, gain);
    phy::ReceiverFrontEnd fe{fe_cfg, Rng{7}};
    expect_search_matches(fe.process(optical).samples, probe_tpl, 0.5,
                          scratch, "probe gain " + std::to_string(gain));
  }

  // The NLOS pilot template: the pilot at 40 TX samples per chip through
  // the pilot-band front end, at floor-bounce strength.
  phy::FrontEndConfig pilot_cfg{};
  pilot_cfg.butterworth_corner_hz = 200e3;
  const std::vector<double> pilot_tpl =
      demod.pattern_template(phy::pilot_pattern());
  for (const double gain : {2e-8, 4e-9, 1e-9}) {
    const auto optical =
        chips_as_optical(phy::pilot_pattern(), 40, 100e3, 8, gain);
    phy::ReceiverFrontEnd fe{pilot_cfg, Rng{8}};
    const auto rx = fe.process(optical);
    for (const double threshold : {0.55, 0.2}) {
      expect_search_matches(rx.samples, pilot_tpl, threshold, scratch,
                            "pilot gain " + std::to_string(gain));
    }
  }

  // A full 600-B frame, the ~106k-sample search of every data slot.
  {
    const auto f = random_frame(600, rng);
    const auto optical =
        chips_as_optical(phy::frame_to_chips(f), params.samples_per_chip,
                         params.chip_rate_hz, 16, 2e-8);
    phy::ReceiverFrontEnd fe{fe_cfg, Rng{11}};
    const auto rx = fe.process(optical);
    EXPECT_GT(rx.samples.size(), 100000u);
    EXPECT_TRUE(
        expect_search_matches(rx.samples, tpl, 0.6, scratch, "600-B frame")
            .has_value());
  }

  // Integer-valued signal with flat stretches: its running sums are
  // exact, so every window inside a stretch has exactly zero variance.
  std::vector<double> stretches(1500, 2.0);
  for (int rep = 0; rep < 2; ++rep) {
    stretches.insert(stretches.end(), tpl.begin(), tpl.end());
    stretches.insert(stretches.end(), 700, static_cast<double>(-rep));
  }
  for (const double threshold : {0.6, 0.0, -1.0}) {
    expect_search_matches(stretches, tpl, threshold, scratch,
                          "flat stretches thr " + std::to_string(threshold));
  }

  // Position counts of every residue mod 4, across the strong peak and in
  // noise.
  for (const std::size_t count :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 401u, 402u, 403u, 404u}) {
    const std::size_t len = tpl.size() + count - 1;
    const std::size_t from = std::min(
        peak->index - std::min(peak->index, count / 2),
        strong_rx.size() - len);
    expect_search_matches(std::span<const double>{strong_rx}.subspan(from, len),
                          tpl, 0.6, scratch,
                          "peak positions " + std::to_string(count));
    expect_search_matches(std::span<const double>{noise}.first(len), tpl,
                          -1.0, scratch,
                          "noise positions " + std::to_string(count));
  }

  // Anti-correlated windows: every score is negative, so below a negative
  // threshold the answer rests on the largest lower bound among the
  // positions alone, whatever the count mod 4.
  for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 6u}) {
    std::vector<double> anti(tpl.size() + count - 1, 0.0);
    for (std::size_t j = 0; j < anti.size(); ++j) {
      anti[j] = -(j < tpl.size() ? tpl[j] : tpl[j - tpl.size()]) +
                1e-3 * rng.gaussian(0.0, 1.0);
    }
    const auto ref = expect_search_matches(
        anti, tpl, -2.0, scratch, "anti-correlated " + std::to_string(count));
    ASSERT_TRUE(ref.has_value());
    EXPECT_LT(ref->score, 0.0);
  }

  // Two templates alternating through the one scratch, then a template
  // rewritten in place: the staged template must follow every change.
  const auto probe_optical = chips_as_optical(
      probe, params.samples_per_chip, params.chip_rate_hz, 16, 1e-7);
  phy::ReceiverFrontEnd probe_fe{fe_cfg, Rng{9}};
  const std::vector<double> probe_rx = probe_fe.process(probe_optical).samples;
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(expect_search_matches(strong_rx, tpl, 0.6, scratch,
                                      "alternating preamble")
                    .has_value());
    EXPECT_TRUE(expect_search_matches(probe_rx, probe_tpl, 0.5, scratch,
                                      "alternating probe")
                    .has_value());
  }
  std::vector<double> edited = tpl;
  expect_search_matches(strong_rx, edited, -1.0, scratch, "before edit");
  for (std::size_t j = 0; j < edited.size(); j += 7) edited[j] = -edited[j];
  expect_search_matches(strong_rx, edited, -1.0, scratch, "edited in place");
  // Warm, the alternation allocates nothing.
  const std::uint64_t before = bench::alloc_count();
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(
        dsp::detect_pattern_into(strong_rx, tpl, 0.6, scratch).has_value());
    EXPECT_TRUE(dsp::detect_pattern_into(probe_rx, probe_tpl, 0.5, scratch)
                    .has_value());
  }
  EXPECT_EQ(bench::alloc_count() - before, 0u);

  // Degenerate shapes.
  EXPECT_FALSE(dsp::detect_pattern_into(std::span<const double>{}, tpl, 0.6,
                                        scratch)
                   .has_value());
  EXPECT_FALSE(
      dsp::detect_pattern_into(tpl, std::span<const double>{}, 0.6, scratch)
          .has_value());
}

// --- Exhaustive byte-domain sweeps ---------------------------------------

TEST_P(FastPath, ManchesterAllByteValuesMatchScalarReference) {
  // Every possible byte value through encode and decode: the whole LUT /
  // movemask domain, not just random samples.
  std::vector<std::uint8_t> bytes(256);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
  const auto ref_chips =
      bench::ref::manchester_encode(bench::ref::bytes_to_bits(bytes));
  std::vector<phy::Chip> chips(16 * bytes.size());
  phy::manchester_encode_bytes(bytes, chips);
  EXPECT_EQ(chips, ref_chips);

  std::vector<std::uint8_t> decoded(bytes.size());
  const std::size_t violations =
      phy::manchester_decode_bytes_lenient(chips, decoded);
  EXPECT_EQ(decoded, bytes);
  EXPECT_EQ(violations, 0u);

  // Every possible *chip pair* value: both violation patterns (00, 11)
  // in every pair slot of a byte, against the reference decoder.
  std::vector<phy::Chip> raw(16 * 256);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    // Walks all 4 pair states through all 8 positions over the sweep.
    raw[i] = ((i * 2654435761u) >> 7) % 2 == 0 ? phy::Chip::kLow
                                               : phy::Chip::kHigh;
  }
  const auto ref_dec = bench::ref::manchester_decode_lenient(raw);
  const auto ref_bytes = bench::ref::bits_to_bytes(ref_dec.bits);
  ASSERT_TRUE(ref_bytes.has_value());
  std::vector<std::uint8_t> fast(256);
  const std::size_t raw_violations =
      phy::manchester_decode_bytes_lenient(raw, fast);
  EXPECT_EQ(fast, *ref_bytes);
  EXPECT_EQ(raw_violations, ref_dec.violations);
}

TEST_P(FastPath, RsAllByteValuesMatchScalarReference) {
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  // One codeword containing every byte value (GF(256) is exercised over
  // its full domain), plus every single-byte message.
  std::vector<std::uint8_t> all(239);
  std::iota(all.begin(), all.end(), std::uint8_t{0});
  EXPECT_EQ(rs.encode(all), ref_rs.encode(all));
  phy::RsDecodeResult dec;
  phy::RsScratch scratch;
  for (int v = 0; v < 256; ++v) {
    const std::vector<std::uint8_t> one{static_cast<std::uint8_t>(v)};
    const auto cw = ref_rs.encode(one);
    EXPECT_EQ(rs.encode(one), cw) << "v=" << v;
    ASSERT_TRUE(rs.decode_into(cw, dec, scratch)) << "v=" << v;
    EXPECT_EQ(dec.data, one) << "v=" << v;
    EXPECT_EQ(dec.corrected_errors, 0u) << "v=" << v;
  }
}

// --- Zero-allocation assertions ------------------------------------------

TEST_P(FastPath, CodecSteadyStateIsAllocationFree) {
  Rng rng{0xF1};
  const auto f = random_frame(600, rng);
  // The per-frame codec bodies on kept buffers: serialize, Manchester
  // encode and decode, parse.
  std::vector<std::uint8_t> wire;
  std::vector<phy::Chip> chips;
  std::vector<std::uint8_t> bytes;
  phy::ParsedFrame parsed;
  phy::FrameParseScratch parse_scratch;
  // And one RS(216, 200) codeword corrected through a 4-byte error burst.
  const phy::ReedSolomon rs{phy::kRsBlockParity};
  const auto msg = random_bytes(200, rng);
  std::vector<std::uint8_t> cw(msg.size() + phy::kRsBlockParity);
  std::vector<std::uint8_t> bad;
  phy::RsDecodeResult dec;
  phy::RsScratch rs_scratch;
  const auto run_one = [&] {
    phy::serialize_frame_into(f, wire);
    arena_resize(chips, wire.size() * 16);
    phy::manchester_encode_bytes(wire, chips);
    arena_resize(bytes, chips.size() / 16);
    phy::manchester_decode_bytes_lenient(chips, bytes);
    ASSERT_TRUE(phy::parse_frame_into(bytes, parsed, parse_scratch));
    ASSERT_EQ(parsed.frame, f);

    std::copy(msg.begin(), msg.end(), cw.begin());
    rs.encode_parity_into(msg, std::span{cw}.subspan(msg.size()));
    bad = cw;
    for (std::size_t e = 0; e < 4; ++e) {
      const std::size_t at = 11 + 53 * e;
      bad[at] = static_cast<std::uint8_t>(bad[at] ^ 0x5A);
    }
    ASSERT_TRUE(rs.decode_into(bad, dec, rs_scratch));
    ASSERT_EQ(dec.corrected_errors, 4u);
    ASSERT_EQ(dec.data, msg);
  };
  run_one();  // warm-up: buffers reach steady-state capacity here
  ASSERT_GE(chips.capacity(), wire.size() * 16);
  ASSERT_GE(bytes.capacity(), chips.size() / 16);
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 10; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

TEST_P(FastPath, ReceiveChainSteadyStateIsAllocationFree) {
  Rng rng{0xF2};
  const auto f = random_frame(300, rng);
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};
  dsp::Waveform wf = mod.modulate_frame(f, false, 0, 8);
  for (double& v : wf.samples) v -= params.bias_current_a;
  const std::span<const double> signal[] = {wf.samples};
  // TX chips and RX decode of one frame, each on kept buffers.
  std::vector<phy::Chip> chips;
  std::vector<std::uint8_t> tx_staging;
  phy::OokDemodulator::BatchRxScratch rxs;
  phy::OokDemodulator::RxResult rx;
  std::uint8_t ok = 0;
  const auto run_one = [&] {
    phy::frame_to_chips_into(f, chips, tx_staging);
    ASSERT_EQ(demod.receive_batch_into(signal, {&rx, 1}, {&ok, 1}, rxs), 1u);
    ASSERT_EQ(rx.parsed.frame.payload, f.payload);
  };
  run_one();  // warm-up
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 5; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

}  // namespace
}  // namespace densevlc
