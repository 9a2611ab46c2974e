// Differential suite for the batch PHY path: many lanes per call through
// the receive front end, the demodulator and joint transmission.
//
// The frame layer (serialize, codec encode/decode, corrupt frames) and
// the modulator are held bit-for-bit against the frozen scalar reference
// in bench/phy_reference, one frame at a time. The demodulator, front-end
// quads and joint transmission are held against one-lane calls in
// sequence — the quad filter kernel against the one-lane filter pass —
// with the same accept/reject decisions and the same Rng stream. Like
// test_fastpath, the whole suite is parameterized over the SIMD dispatch
// so both backends of the float kernels are pinned to the same outputs
// transitively.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/beamspot.hpp"
#include "core/testbed.hpp"
#include "dsp/waveform.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"
#include "phy_reference.hpp"

namespace densevlc {
namespace {

/// Param = force-scalar: false runs the native (vector) dispatch, true
/// pins every kernel onto the scalar backend.
class Batch : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override { simd::set_force_scalar(false); }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, Batch, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "ForcedScalar" : "NativeSimd";
    });

phy::MacFrame make_frame(std::size_t payload, Rng& rng) {
  phy::MacFrame f;
  f.dst = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.src = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.payload.resize(payload);
  for (auto& b : f.payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return f;
}

// Payload sizes straddling the interesting codec boundaries: empty, one
// RS block, exactly one data block (239), several blocks, and kMaxPayload.
const std::size_t kPayloads[] = {0, 1, 60, 239, 240, 700, 1500};

std::vector<phy::MacFrame> make_frames(Rng& rng) {
  std::vector<phy::MacFrame> frames;
  for (const std::size_t p : kPayloads) frames.push_back(make_frame(p, rng));
  return frames;
}

// The frozen scalar codec: reference serializer, body (everything after
// the clear header) through the reference permutation.
std::vector<std::uint8_t> ref_encode(const phy::MacFrame& f,
                                     std::size_t depth) {
  auto wire = bench::ref::serialize_frame(f);
  const auto body = bench::ref::interleave(
      std::span<const std::uint8_t>{wire}.subspan(phy::kHeaderBytes), depth);
  std::copy(body.begin(), body.end(),
            wire.begin() + static_cast<std::ptrdiff_t>(phy::kHeaderBytes));
  return wire;
}

std::optional<phy::ParsedFrame> ref_decode(
    std::span<const std::uint8_t> wire, std::size_t depth) {
  if (wire.size() <= phy::kHeaderBytes) return bench::ref::parse_frame(wire);
  std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
  const auto body =
      bench::ref::deinterleave(wire.subspan(phy::kHeaderBytes), depth);
  std::copy(body.begin(), body.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(phy::kHeaderBytes));
  return bench::ref::parse_frame(bytes);
}

// --- Frame codec ---------------------------------------------------------

TEST_P(Batch, SerializeFramesMatchesScalar) {
  Rng rng{0xB0};
  for (const auto& frame : make_frames(rng)) {
    EXPECT_EQ(phy::serialize_frame(frame), bench::ref::serialize_frame(frame))
        << "payload " << frame.payload.size();
  }

  phy::MacFrame overlong;
  overlong.payload.resize(phy::kMaxPayload + 1);
  EXPECT_THROW(phy::serialize_frame(overlong), std::invalid_argument);
}

TEST_P(Batch, EncodeFramesMatchesScalarAcrossDepths) {
  Rng rng{0xB1};
  const auto frames = make_frames(rng);
  for (const std::size_t depth : {0, 1, 2, 4, 8}) {
    const phy::FrameCodec codec{depth};
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(codec.encode(frames[i]), ref_encode(frames[i], depth))
          << "depth " << depth << " frame " << i;
    }
  }
}

TEST_P(Batch, DecodeFramesMatchesScalarIncludingCorruptLanes) {
  Rng rng{0xB2};
  const auto frames = make_frames(rng);
  for (const std::size_t depth : {0, 1, 2, 4, 8}) {
    const phy::FrameCodec codec{depth};

    // Encode every frame and corrupt a spread of them: correctable
    // single-byte hits, an error burst past the RS capacity, and a
    // trashed header. Frames 0 and 3 stay clean.
    std::vector<std::vector<std::uint8_t>> wires;
    for (const auto& frame : frames) wires.push_back(codec.encode(frame));
    wires[1][wires[1].size() / 2] ^= 0x5A;  // one correctable byte
    for (std::size_t j = 0; j < 40 && j < wires[2].size(); ++j) {
      wires[2][j + wires[2].size() / 3] ^= 0xFF;  // burst: uncorrectable
    }
    wires[4][0] ^= 0xFF;                          // SFD destroyed
    wires[5][5] ^= 0x01;
    wires[5][wires[5].size() - 1] ^= 0x80;        // two scattered hits
    // Header rejects: a buffer shorter than the header, a length field
    // above kMaxPayload, and a body cut one byte short.
    const std::size_t first_reject = wires.size();
    wires.emplace_back(wires[0].begin(), wires[0].begin() + 5);
    wires.push_back(wires[3]);
    wires.back()[1] = static_cast<std::uint8_t>((phy::kMaxPayload + 1) >> 8);
    wires.back()[2] = static_cast<std::uint8_t>((phy::kMaxPayload + 1) & 0xFF);
    wires.push_back(wires[0]);
    wires.back().pop_back();

    bool saw_ok = false;
    bool saw_fail = false;
    for (std::size_t i = 0; i < wires.size(); ++i) {
      const auto expect = ref_decode(wires[i], depth);
      const auto got = codec.decode(wires[i]);
      ASSERT_EQ(got.has_value(), expect.has_value())
          << "depth " << depth << " wire " << i;
      (expect ? saw_ok : saw_fail) = true;
      if (i >= first_reject) {
        EXPECT_FALSE(expect.has_value()) << "wire " << i;
      }
      if (expect) {
        EXPECT_EQ(got->frame, expect->frame) << "wire " << i;
        EXPECT_EQ(got->corrected_bytes, expect->corrected_bytes)
            << "wire " << i;
      }
    }
    EXPECT_TRUE(saw_ok);    // the fixture must exercise both outcomes
    EXPECT_TRUE(saw_fail);
  }
}

// --- Batch modulator / demodulator ---------------------------------------

TEST_P(Batch, ModulateFrameMatchesReferenceChips) {
  Rng rng{0xB3};
  const auto frames = make_frames(rng);
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const std::size_t spc = params.samples_per_chip;

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const bool pilot = (i % 2) == 0;
    const auto tx_id = static_cast<std::uint8_t>(0xC0 + i);
    const std::size_t guard = 4 * i;
    const dsp::Waveform got = mod.modulate_frame(frames[i], pilot, tx_id,
                                                 guard);

    // [pilot + Manchester id] preamble + Manchester wire, from the frozen
    // serializer and bit-level coder, rendered between bias guards.
    std::vector<phy::Chip> chips;
    if (pilot) {
      const auto pat = phy::pilot_pattern();
      chips.assign(pat.begin(), pat.end());
      const std::array<std::uint8_t, 1> id{tx_id};
      const auto id_chips =
          bench::ref::manchester_encode(bench::ref::bytes_to_bits(id));
      chips.insert(chips.end(), id_chips.begin(), id_chips.end());
    }
    const auto pre = phy::preamble_pattern();
    chips.insert(chips.end(), pre.begin(), pre.end());
    const auto body = bench::ref::manchester_encode(bench::ref::bytes_to_bits(
        bench::ref::serialize_frame(frames[i])));
    chips.insert(chips.end(), body.begin(), body.end());
    std::vector<double> expect(guard * spc, params.bias_current_a);
    for (const phy::Chip c : chips) {
      expect.insert(expect.end(), spc, mod.chip_current(c));
    }
    expect.insert(expect.end(), guard * spc, params.bias_current_a);

    EXPECT_EQ(got.sample_rate_hz, params.sample_rate_hz());
    EXPECT_EQ(got.samples, expect) << "lane " << i;
  }
}

TEST_P(Batch, ReceiveBatchMatchesReceiveFrame) {
  Rng rng{0xB4};
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};

  // Lanes: clean frames of several sizes, one all-noise lane (no
  // preamble), one lane with a corrupted stretch of samples.
  std::vector<phy::MacFrame> frames = {make_frame(40, rng),
                                       make_frame(0, rng),
                                       make_frame(300, rng),
                                       make_frame(40, rng),
                                       make_frame(90, rng)};
  std::vector<std::vector<double>> lanes;
  for (const auto& f : frames) {
    dsp::Waveform wf = mod.modulate_frame(f, false, 0, 8);
    for (double& v : wf.samples) v -= params.bias_current_a;
    lanes.emplace_back(wf.samples.begin(), wf.samples.end());
  }
  std::vector<double> noise(4000);
  for (auto& v : noise) v = rng.uniform(-0.02, 0.02);
  lanes.insert(lanes.begin() + 3, noise);
  for (std::size_t s = 900; s < 2600; ++s) lanes[4][s] = -lanes[4][s];

  std::vector<std::span<const double>> signals;
  for (const auto& lane : lanes) signals.emplace_back(lane);
  std::vector<phy::OokDemodulator::RxResult> out(lanes.size());
  std::vector<std::uint8_t> ok(lanes.size(), 0xEE);
  phy::OokDemodulator::BatchRxScratch scratch;
  const std::size_t decoded =
      demod.receive_batch_into(signals, out, ok, scratch);

  std::size_t expected_decoded = 0;
  bool saw_fail = false;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto expect = demod.receive_frame(signals[i]);
    ASSERT_EQ(ok[i] != 0, expect.has_value()) << "lane " << i;
    saw_fail = saw_fail || !expect;
    if (expect) {
      ++expected_decoded;
      EXPECT_EQ(out[i].parsed.frame, expect->parsed.frame) << "lane " << i;
      EXPECT_EQ(out[i].parsed.corrected_bytes,
                expect->parsed.corrected_bytes);
      EXPECT_EQ(out[i].preamble_at, expect->preamble_at) << "lane " << i;
      EXPECT_EQ(out[i].correlation, expect->correlation) << "lane " << i;
      EXPECT_EQ(out[i].manchester_violations, expect->manchester_violations);
    }
  }
  EXPECT_EQ(decoded, expected_decoded);
  EXPECT_GE(decoded, 4u);  // the clean lanes must all decode
  EXPECT_TRUE(saw_fail);   // and the noise lane must not
}

// --- Batch front-end -----------------------------------------------------

dsp::Waveform make_optical(std::size_t samples, double rate, Rng& rng) {
  dsp::Waveform wf;
  wf.sample_rate_hz = rate;
  wf.samples.resize(samples);
  for (auto& v : wf.samples) v = 1e-6 * (1.0 + rng.uniform(-0.5, 0.5));
  return wf;
}

TEST_P(Batch, FrontEndBatchMatchesSequential) {
  Rng rng{0xB5};
  const phy::FrontEndConfig cfg{};
  // Two identical Rng streams so the batch and sequential front-ends draw
  // the exact same noise.
  Rng seq_rng{77};
  Rng batch_rng{77};
  // Seven lanes: one full quad of equal lengths, a ragged lane, an empty
  // lane, and one leftover — exercising the quad kernel, the per-lane
  // tails, the empty-lane skip, and the scalar fallback.
  const std::size_t lens[] = {5000, 5000, 5000, 5000, 5003, 0, 2000};
  std::vector<dsp::Waveform> optical;
  for (const std::size_t n : lens) {
    optical.push_back(make_optical(n, 1e6, rng));
  }

  std::vector<phy::ReceiverFrontEnd> seq_fes;
  std::vector<phy::ReceiverFrontEnd> batch_fes;
  for (std::size_t i = 0; i < optical.size(); ++i) {
    seq_fes.emplace_back(cfg, seq_rng.fork());
    batch_fes.emplace_back(cfg, batch_rng.fork());
  }

  // Two rounds over the same front-ends: round two starts from non-zero
  // filter state, pinning the stateful hand-off between batch calls.
  std::vector<dsp::Waveform> expect(optical.size());
  std::vector<dsp::Waveform> got(optical.size());
  phy::ReceiverFrontEnd::BatchScratch scratch;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < optical.size(); ++i) {
      expect[i] = seq_fes[i].process(optical[i]);
    }
    std::vector<phy::ReceiverFrontEnd*> fes;
    std::vector<const dsp::Waveform*> in;
    std::vector<dsp::Waveform*> out;
    for (std::size_t i = 0; i < optical.size(); ++i) {
      fes.push_back(&batch_fes[i]);
      in.push_back(&optical[i]);
      out.push_back(&got[i]);
    }
    phy::ReceiverFrontEnd::process_batch_into(fes, in, out, scratch);
    for (std::size_t i = 0; i < optical.size(); ++i) {
      ASSERT_EQ(got[i].samples.size(), expect[i].samples.size())
          << "round " << round << " lane " << i;
      EXPECT_EQ(got[i].samples, expect[i].samples)
          << "round " << round << " lane " << i;
    }
  }
}

/// True when the two sample vectors are equal bit for bit.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(y);
         });
}

/// The lanes of the pre-ADC front-end checks, at a TX rate the
/// zero-order hold resamples from. Four quads whose lane lengths differ by
/// 1-7 samples, so each ragged tail continues from the quad kernel's
/// written-back state, and whose shared prefixes take every length mod 4,
/// so the kernel's last, lane-gathered samples take every count; then an
/// empty lane and a leftover. Every lane has its own AC gain.
struct PreAdcLanes {
  static constexpr double kRate = 1.7e6;
  static constexpr std::size_t kLens[] = {
      3000, 3001, 3004, 3007,  // prefix 3000 = 0 mod 4
      3005, 3002, 3001, 3003,  // prefix 3001 = 1 mod 4
      3002, 3008, 3006, 3003,  // prefix 3002 = 2 mod 4
      3010, 3004, 3003, 3005,  // prefix 3003 = 3 mod 4
      0,    2001};
  std::vector<dsp::Waveform> optical;
  std::vector<phy::FrontEndConfig> cfgs;

  explicit PreAdcLanes(Rng& rng) {
    const double fs = phy::FrontEndConfig{}.adc.sample_rate_hz;
    for (std::size_t i = 0; i < std::size(kLens); ++i) {
      // The fewest TX-rate samples the front end resamples to kLens[i].
      std::size_t n = kLens[i] * 17 / 10;
      while (n > 0 && static_cast<std::size_t>(
                          static_cast<double>(n) / kRate * fs) >= kLens[i]) {
        --n;
      }
      while (static_cast<std::size_t>(static_cast<double>(n) / kRate * fs) <
             kLens[i]) {
        ++n;
      }
      optical.push_back(make_optical(n, kRate, rng));
      phy::FrontEndConfig cfg{};
      cfg.ac_gain = 20.0 + 0.37 * static_cast<double>(i);
      cfgs.push_back(cfg);
    }
  }

  /// Runs analog_batch_into over all lanes of `fes` into `out`, then
  /// checks every lane came out at its planned length.
  void run(std::vector<phy::ReceiverFrontEnd>& fes,
           std::vector<dsp::Waveform>& out) const {
    std::vector<phy::ReceiverFrontEnd*> fe_ptrs;
    std::vector<const dsp::Waveform*> in;
    std::vector<dsp::Waveform*> outs;
    for (std::size_t i = 0; i < optical.size(); ++i) {
      fe_ptrs.push_back(&fes[i]);
      in.push_back(&optical[i]);
      outs.push_back(&out[i]);
    }
    phy::ReceiverFrontEnd::BatchScratch scratch;
    phy::ReceiverFrontEnd::analog_batch_into(fe_ptrs, in, outs, scratch);
    for (std::size_t i = 0; i < optical.size(); ++i) {
      ASSERT_EQ(out[i].samples.size(), kLens[i]) << "lane " << i;
    }
  }
};

TEST_P(Batch, FrontEndQuadMatchesOneLaneBeforeAdc) {
  // The ADC's 12-bit grid hides an ulp of drift between the quad and
  // one-lane paths (the quad kernel's filters, the AC-gain multiply), so
  // they are compared on the converter's input, over two back-to-back
  // calls: the second starts from the first's filter state.
  Rng rng{0xBA};
  const PreAdcLanes lanes{rng};
  Rng quad_rng{78};
  Rng lane_rng{78};
  std::vector<phy::ReceiverFrontEnd> quad_fes;
  std::vector<phy::ReceiverFrontEnd> lane_fes;
  for (const phy::FrontEndConfig& cfg : lanes.cfgs) {
    quad_fes.emplace_back(cfg, quad_rng.fork());
    lane_fes.emplace_back(cfg, lane_rng.fork());
  }
  std::vector<dsp::Waveform> quad_out(lanes.optical.size());
  std::vector<dsp::Waveform> lane_out(lanes.optical.size());
  phy::ReceiverFrontEnd::BatchScratch scratch;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < lanes.optical.size(); ++i) {
      phy::ReceiverFrontEnd* const one_fe[] = {&lane_fes[i]};
      const dsp::Waveform* const one_in[] = {&lanes.optical[i]};
      dsp::Waveform* const one_out[] = {&lane_out[i]};
      phy::ReceiverFrontEnd::analog_batch_into(one_fe, one_in, one_out,
                                               scratch);
    }
    lanes.run(quad_fes, quad_out);
    for (std::size_t i = 0; i < lanes.optical.size(); ++i) {
      EXPECT_TRUE(same_bits(quad_out[i].samples, lane_out[i].samples))
          << "round " << round << " lane " << i;
    }
  }
}

TEST(SimdLegs, FrontEndAnalogMatchesBeforeAdc) {
  // Each Batch leg is held to its own one-lane calls, and the ADC's grid
  // hides an ulp, so a drift between the vector and scalar ZOH/TIA or
  // quad-kernel arithmetic shows only on the converter's input. Two
  // back-to-back calls per leg.
  const auto run = [](bool force_scalar) {
    simd::set_force_scalar(force_scalar);
    Rng rng{0xBB};
    const PreAdcLanes lanes{rng};
    Rng fe_rng{79};
    std::vector<phy::ReceiverFrontEnd> fes;
    for (const phy::FrontEndConfig& cfg : lanes.cfgs) {
      fes.emplace_back(cfg, fe_rng.fork());
    }
    std::vector<std::vector<dsp::Waveform>> rounds(
        2, std::vector<dsp::Waveform>(lanes.optical.size()));
    for (auto& out : rounds) lanes.run(fes, out);
    simd::set_force_scalar(false);
    return rounds;
  };
  const auto scalar = run(true);
  const auto vector = run(false);
  for (std::size_t r = 0; r < scalar.size(); ++r) {
    for (std::size_t i = 0; i < scalar[r].size(); ++i) {
      EXPECT_TRUE(same_bits(scalar[r][i].samples, vector[r][i].samples))
          << "round " << r << " lane " << i;
    }
  }
}

TEST_P(Batch, DeepCascadeMatchesScalar) {
  // An order-24 Butterworth is 12 sections, deeper than the quad kernel
  // stages: such quads must take the one-lane pass, bit for bit.
  Rng rng{0xB6};
  phy::FrontEndConfig cfg{};
  cfg.butterworth_order = 24;
  Rng seq_rng{78};
  Rng batch_rng{78};
  // One quad with a ragged lane, then a leftover lane.
  const std::size_t lens[] = {3000, 3000, 3000, 3007, 1500};
  std::vector<dsp::Waveform> optical;
  std::vector<phy::ReceiverFrontEnd> seq_fes;
  std::vector<phy::ReceiverFrontEnd> batch_fes;
  for (const std::size_t n : lens) {
    optical.push_back(make_optical(n, 1e6, rng));
    seq_fes.emplace_back(cfg, seq_rng.fork());
    batch_fes.emplace_back(cfg, batch_rng.fork());
  }
  std::vector<dsp::Waveform> expect(optical.size());
  std::vector<dsp::Waveform> got(optical.size());
  std::vector<phy::ReceiverFrontEnd*> fes;
  std::vector<const dsp::Waveform*> in;
  std::vector<dsp::Waveform*> out;
  for (std::size_t i = 0; i < optical.size(); ++i) {
    expect[i] = seq_fes[i].process(optical[i]);
    fes.push_back(&batch_fes[i]);
    in.push_back(&optical[i]);
    out.push_back(&got[i]);
  }
  phy::ReceiverFrontEnd::BatchScratch scratch;
  phy::ReceiverFrontEnd::process_batch_into(fes, in, out, scratch);
  for (std::size_t i = 0; i < optical.size(); ++i) {
    ASSERT_EQ(got[i].samples.size(), expect[i].samples.size()) << "lane " << i;
    EXPECT_EQ(got[i].samples, expect[i].samples) << "lane " << i;
    for (const double v : got[i].samples) ASSERT_TRUE(std::isfinite(v));
  }
}

// --- Batch joint transmission --------------------------------------------

TEST_P(Batch, TransmitBatchMatchesSequential) {
  core::Testbed tb = core::make_experimental_testbed();
  const phy::OokParams ook{};
  const phy::FrontEndConfig frontend{};
  const core::JointTransmission jt{tb.led, ook, frontend};

  Rng frame_rng{0xB6};
  const auto frame_a = make_frame(60, frame_rng);
  const auto frame_b = make_frame(200, frame_rng);
  const auto frame_c = make_frame(32, frame_rng);

  const std::vector<core::ServingTx> one_tx{{7, 8e-7, 0.9, 0.0}};
  const std::vector<core::ServingTx> two_tx{{7, 6e-7, 0.9, 0.0},
                                            {13, 4e-7, 0.9, 0.3e-6}};
  const std::vector<core::ServingTx> weak_tx{{3, 2e-8, 0.9, 0.0}};
  std::vector<core::InterfererGroup> interferers(1);
  interferers[0].txs = {{21, 1e-7, 0.9, 12e-6}};
  interferers[0].frame = frame_c;

  // Lanes: normal, no servers (early-return, no Rng fork), joint two-TX,
  // interfered + ambient, weak link.
  std::vector<core::JointTransmission::TransmitJob> jobs = {
      {one_tx, &frame_a, {}, 0.0},
      {{}, &frame_a, {}, 0.0},
      {two_tx, &frame_b, {}, 0.0},
      {one_tx, &frame_b, interferers, 1e-6},
      {weak_tx, &frame_a, {}, 0.0},
  };

  Rng seq_rng{91};
  Rng batch_rng{91};
  std::vector<core::TransmissionOutcome> got(jobs.size());
  core::JointTransmission::TransmitBatchScratch scratch;
  // Round two reuses the warm scratch: its front-ends restart on the new
  // noise streams and must behave exactly like freshly built ones.
  for (int round = 0; round < 2; ++round) {
    std::vector<core::TransmissionOutcome> expect;
    for (const auto& job : jobs) {
      expect.push_back(jt.transmit(job.servers, *job.frame, seq_rng,
                                   job.interferers, job.ambient_optical_w));
    }
    jt.transmit_batch(jobs, batch_rng, got, scratch);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(got[i].delivered, expect[i].delivered)
          << "round " << round << " lane " << i;
      EXPECT_EQ(got[i].preamble_found, expect[i].preamble_found)
          << "round " << round << " lane " << i;
      EXPECT_EQ(got[i].corrected_bytes, expect[i].corrected_bytes)
          << "round " << round << " lane " << i;
      EXPECT_EQ(got[i].correlation, expect[i].correlation)
          << "round " << round << " lane " << i;
      EXPECT_EQ(got[i].snr_estimate_db, expect[i].snr_estimate_db)
          << "round " << round << " lane " << i;
    }
    EXPECT_TRUE(got[0].delivered);
    EXPECT_FALSE(got[1].delivered);
  }
  // A scratch warmed under another front-end configuration rebuilds its
  // front-ends instead of restarting them.
  phy::FrontEndConfig other = frontend;
  other.tia_gain_ohm = 40e3;
  const core::JointTransmission jt_other{tb.led, ook, other};
  std::vector<core::TransmissionOutcome> expect;
  for (const auto& job : jobs) {
    expect.push_back(jt_other.transmit(job.servers, *job.frame, seq_rng,
                                       job.interferers,
                                       job.ambient_optical_w));
  }
  jt_other.transmit_batch(jobs, batch_rng, got, scratch);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(got[i].correlation, expect[i].correlation) << "lane " << i;
    EXPECT_EQ(got[i].snr_estimate_db, expect[i].snr_estimate_db)
        << "lane " << i;
  }
  // Both Rngs must have consumed the identical number of draws.
  EXPECT_EQ(seq_rng.uniform_int(0, 1 << 30), batch_rng.uniform_int(0, 1 << 30));
}

// --- Optical render ------------------------------------------------------

TEST_P(Batch, RenderMatchesReference) {
  // Every lane transmit_batch renders is bit-compared with the frozen
  // stream-by-stream render. The timeline's guard and offset margins keep
  // any finite start offset inside it, so the cases that reach its ends
  // are offsets flush against the margins and a NaN offset, whose start
  // (llround of NaN, the same value in both renders) falls before the
  // timeline. The phase render's own edges: every phase distinct (one
  // segment per sample), no phase at 0, no stream at all, and period
  // counts one short of, on and one past a multiple of its block.
  core::Testbed tb = core::make_experimental_testbed();
  const phy::FrontEndConfig frontend{};
  constexpr std::size_t kBlock = core::JointTransmission::kRenderBlockPeriods;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Rng rng{0xB9};
  const auto served = make_frame(40, rng);
  const auto longer = make_frame(90, rng);
  const std::size_t longest_chips =
      phy::kPreambleChips + 16 * phy::serialized_frame_bytes(90);

  for (const std::size_t spc : {1, 7, 10, 16}) {
    phy::OokParams ook{};
    ook.samples_per_chip = spc;
    const core::JointTransmission jt{tb.led, ook, frontend};
    const double sample_s = 1.0 / ook.sample_rate_hz();
    // 39.6 samples rounds to 40 = ceil(39.6): flush against the margins.
    const double flush_s = 39.6 * sample_s;

    // Mixed offsets, zero and negative gains (no stream), an interferer
    // frame longer than the served one, and ambient light. Gains of
    // unrelated magnitudes make the sums round, so the addition order
    // shows in the bits.
    const std::vector<core::ServingTx> mixed = {
        {1, 6.1e-7, 0.9, -flush_s},        {2, 0.0, 0.9, 0.0},
        {3, 2.93e-7, 0.7, 0.37 * sample_s}, {4, -2e-7, 0.9, flush_s},
        {5, 1.77e-7, 0.5, flush_s},
    };
    std::vector<core::InterfererGroup> interferers(2);
    interferers[0].frame = longer;
    interferers[0].txs = {{6, 1.13e-7, 0.9, -12.4 * sample_s},
                          {7, 0.0, 0.9, 0.0}};
    interferers[1].frame = served;
    interferers[1].txs = {{8, 4.7e-8, 0.9, 2.5 * sample_s}};
    const std::vector<core::ServingTx> nan_offset = {
        {1, 5.3e-7, 0.9, kNan}, {2, 3.7e-7, 0.9, 0.0}};
    // One stream per residue modulo samples_per_chip: every phase taken.
    std::vector<core::ServingTx> every_phase;
    for (std::size_t r = 0; r < spc; ++r) {
      every_phase.push_back({r, 1.3e-7 + 7.1e-9 * static_cast<double>(r * r),
                             0.9, static_cast<double>(r) * sample_s});
    }
    // Phases 4 and 6 only (for spc > 1): the first period starts on
    // phase 4 before the timeline, so the timeline opens mid-period.
    const std::vector<core::ServingTx> late = {
        {1, 4.1e-7, 0.9, 2.6 * sample_s}, {2, 2.2e-7, 0.9, 1.2 * sample_s}};
    // Gains <= 0 only: no stream, the timeline is ambient light.
    const std::vector<core::ServingTx> dark = {{1, 0.0, 0.9, 0.0},
                                               {2, -3e-7, 0.9, 0.0}};

    // Period counts around the first block multiple past the shortest
    // timeline. A zero-gain TX at an offset of k - 1/2 samples sets a
    // margin of k samples per side and adds no stream; the streams sit
    // whole chips inside it, on phase 0, so the render's periods are
    // ceil(timeline / spc). A timeline is even, so at spc 1 only the
    // even count occurs.
    const std::size_t base = (longest_chips + 32) * spc;
    const std::size_t target = ((longest_chips + 32) / kBlock + 1) * kBlock;
    std::vector<std::size_t> periods;
    std::vector<std::size_t> lengths;
    std::vector<std::vector<core::ServingTx>> blocked;
    for (std::size_t margin = 3 * spc + 1; margin <= (target + 2) * spc;
         ++margin) {
      const std::size_t total = base + 2 * margin;
      const std::size_t p = (total + spc - 1) / spc;
      if (p + 1 < target || p > target + 1 ||
          std::find(periods.begin(), periods.end(), p) != periods.end()) {
        continue;
      }
      periods.push_back(p);
      lengths.push_back(total);
      const auto inside = [&](std::size_t chips) {
        return -static_cast<double>(margin - chips * spc) * sample_s;
      };
      blocked.push_back(
          {{1, 0.0, 0.9, -(static_cast<double>(margin) - 0.5) * sample_s},
           {2, 5.3e-7, 0.9, inside(1)},
           {3, 3.7e-7, 0.9, inside(2)},
           {4, 1.9e-7, 0.8, inside(3)}});
    }
    ASSERT_EQ(periods.size(), spc == 1 ? 1u : 3u) << "spc " << spc;

    std::vector<core::JointTransmission::TransmitJob> jobs = {
        {mixed, &served, interferers, 2.3e-6},
        {nan_offset, &served, {}, 0.0},
        {every_phase, &served, interferers, 0.9e-6},
        {dark, &served, {}, 1.7e-6},
        {late, &served, {}, 0.4e-6},
    };
    const std::size_t first_blocked = jobs.size();
    for (const auto& servers : blocked) {
      jobs.push_back({servers, &longer, {}, 1.1e-6});
    }
    std::vector<core::TransmissionOutcome> outcomes(jobs.size());
    core::JointTransmission::TransmitBatchScratch scratch;
    Rng noise{17};
    jt.transmit_batch(jobs, noise, outcomes, scratch);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const dsp::Waveform expect = bench::ref::render_optical(
          tb.led, ook, jobs[i].servers, *jobs[i].frame, jobs[i].interferers,
          jobs[i].ambient_optical_w);
      EXPECT_EQ(scratch.optical[i].sample_rate_hz, expect.sample_rate_hz);
      EXPECT_TRUE(same_bits(scratch.optical[i].samples, expect.samples))
          << "spc " << spc << " lane " << i;
      if (i >= first_blocked) {
        EXPECT_EQ(expect.samples.size(), lengths[i - first_blocked])
            << "spc " << spc << " periods " << periods[i - first_blocked];
      }
    }
    // The dark lane is ambient light throughout.
    for (const double v : scratch.optical[3].samples) {
      ASSERT_EQ(v, 1.7e-6) << "spc " << spc;
    }
  }
}

TEST_P(Batch, RenderScratchGrowsOnceThenAllocatesNothing) {
  // A later call brings more streams and phases than the first, so the
  // render's level rows, segment sums and row table grow; after that,
  // calls in either order allocate nothing.
  core::Testbed tb = core::make_experimental_testbed();
  const phy::OokParams ook{};
  const core::JointTransmission jt{tb.led, ook, phy::FrontEndConfig{}};
  const double sample_s = 1.0 / ook.sample_rate_hz();
  Rng frame_rng{0xBB};
  const auto frame = make_frame(120, frame_rng);
  const std::vector<core::ServingTx> one{{1, 8e-7, 0.9, 0.0}};
  std::vector<core::ServingTx> many;
  for (std::size_t r = 0; r < 2 * ook.samples_per_chip; ++r) {
    many.push_back({r, 4e-7 / static_cast<double>(r + 1), 0.9,
                    static_cast<double>(r) * 0.5 * sample_s});
  }
  const std::vector<core::JointTransmission::TransmitJob> small = {
      {one, &frame, {}, 0.0}};
  const std::vector<core::JointTransmission::TransmitJob> large = {
      {one, &frame, {}, 0.0}, {many, &frame, {}, 0.0}};
  std::vector<core::TransmissionOutcome> outcomes(large.size());
  core::JointTransmission::TransmitBatchScratch scratch;
  Rng rng{97};
  const auto run = [&](std::span<const core::JointTransmission::TransmitJob>
                           jobs) {
    jt.transmit_batch(jobs, rng, std::span{outcomes}.first(jobs.size()),
                      scratch);
    ASSERT_TRUE(outcomes[0].delivered);
  };
  run(small);
  run(large);  // the render scratch grows here
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 2; ++i) {
    run(small);
    run(large);
  }
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

// --- Zero-allocation steady state ----------------------------------------

TEST_P(Batch, BatchPipelineSteadyStateIsAllocationFree) {
  Rng rng{0xB7};
  const std::vector<phy::MacFrame> frames = {make_frame(120, rng),
                                             make_frame(120, rng),
                                             make_frame(120, rng),
                                             make_frame(120, rng)};
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};

  // Rendered once (ideal AC coupling): the loop is the per-frame chip
  // assembly on the TX side and the batch receive on the RX side.
  std::vector<std::vector<double>> rendered;
  for (const auto& f : frames) {
    dsp::Waveform wf = mod.modulate_frame(f, false, 0, 8);
    for (double& v : wf.samples) v -= params.bias_current_a;
    rendered.push_back(std::move(wf.samples));
  }
  std::vector<std::span<const double>> signals(rendered.begin(),
                                               rendered.end());
  std::vector<phy::Chip> chips;
  std::vector<std::uint8_t> staging;
  phy::OokDemodulator::BatchRxScratch rxb;
  std::vector<phy::OokDemodulator::RxResult> results(frames.size());
  std::vector<std::uint8_t> ok(frames.size());

  const auto run_one = [&] {
    for (const auto& f : frames) phy::frame_to_chips_into(f, chips, staging);
    ASSERT_EQ(demod.receive_batch_into(signals, results, ok, rxb),
              frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(results[i].parsed.frame.payload, frames[i].payload);
    }
  };
  run_one();  // warm-up: all scratch reaches steady-state capacity
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 5; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

TEST_P(Batch, TransmitBatchSteadyStateIsAllocationFree) {
  core::Testbed tb = core::make_experimental_testbed();
  const phy::OokParams ook{};
  const phy::FrontEndConfig frontend{};
  const core::JointTransmission jt{tb.led, ook, frontend};

  Rng frame_rng{0xB8};
  const auto frame_a = make_frame(120, frame_rng);
  const auto frame_b = make_frame(200, frame_rng);
  const auto frame_c = make_frame(300, frame_rng);  // outlasts every lane

  const std::vector<core::ServingTx> spot_a{{7, 6e-7, 0.9, 0.0},
                                            {13, 4e-7, 0.9, -0.3e-6}};
  const std::vector<core::ServingTx> spot_b{{21, 8e-7, 0.9, 0.2e-6}};
  std::vector<core::InterfererGroup> groups(2);
  groups[0].txs = {{21, 2e-8, 0.9, 14e-6}};
  groups[0].frame = frame_b;
  groups[1].txs = {{30, 1e-8, 0.9, -9e-6}, {31, 1e-8, 0.9, 1e-6}};
  groups[1].frame = frame_c;
  const std::span<const core::InterfererGroup> both{groups};

  // Four interfered lanes plus one lane with no servers.
  const std::vector<core::JointTransmission::TransmitJob> jobs = {
      {spot_a, &frame_a, both, 0.0},
      {spot_b, &frame_b, both.first(1), 1e-6},
      {{}, &frame_a, both, 0.0},
      {spot_a, &frame_b, both.last(1), 0.0},
      {spot_b, &frame_a, both, 0.0},
  };
  std::vector<core::TransmissionOutcome> outcomes(jobs.size());
  core::JointTransmission::TransmitBatchScratch scratch;
  Rng rng{93};

  const auto run_one = [&] {
    jt.transmit_batch(jobs, rng, outcomes, scratch);
    for (const std::size_t lane : {0u, 1u, 3u, 4u}) {
      ASSERT_TRUE(outcomes[lane].delivered) << "lane " << lane;
    }
  };
  run_one();  // warm-up: render, front-end and receive scratch settle
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 3; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

TEST_P(Batch, TransmitOnGivenStreamsMatchesForking) {
  // The per-lane-stream overload against the forking one, lane for lane:
  // given the streams the forking overload takes from `rng`, every
  // outcome is the same. run_arq re-runs the tail of a slot this way, so
  // a tail on its own streams must match too, and once both shapes have
  // been seen, calls on a kept scratch allocate nothing.
  core::Testbed tb = core::make_experimental_testbed();
  const core::JointTransmission jt{tb.led, phy::OokParams{},
                                   phy::FrontEndConfig{}};
  Rng frame_rng{0xBA};
  const auto frame_a = make_frame(120, frame_rng);
  const auto frame_b = make_frame(600, frame_rng);
  const std::vector<core::ServingTx> spot_a{{7, 6e-7, 0.9, 0.0},
                                            {13, 4e-7, 0.9, -0.3e-6}};
  const std::vector<core::ServingTx> spot_b{{21, 8e-7, 0.9, 0.2e-6}};
  const std::vector<core::ServingTx> weak{{3, 2e-8, 0.9, 0.0}};
  std::vector<core::InterfererGroup> groups(1);
  groups[0].txs = {{21, 2e-8, 0.9, 14e-6}};
  groups[0].frame = frame_b;
  // Delivered, interfered, no servers (no stream), undelivered.
  const std::vector<core::JointTransmission::TransmitJob> jobs = {
      {spot_a, &frame_a, groups, 0.0},
      {spot_b, &frame_b, {}, 0.0},
      {{}, &frame_a, {}, 0.0},
      {weak, &frame_a, groups, 0.0},
      {spot_b, &frame_a, groups, 1e-6},
  };
  const std::size_t n = jobs.size();

  Rng forking_rng{95};
  std::vector<core::TransmissionOutcome> expect(n);
  core::JointTransmission::TransmitBatchScratch forking_scratch;
  jt.transmit_batch(jobs, forking_rng, expect, forking_scratch);

  Rng stream_rng{95};
  std::vector<Rng> noise(n, Rng{0xDEAD});  // lane 2's is never read
  for (std::size_t i = 0; i < n; ++i) {
    if (!jobs[i].servers.empty()) noise[i] = stream_rng.fork();
  }
  EXPECT_EQ(stream_rng.uniform(), forking_rng.uniform())
      << "the forking overload takes one fork per lane with servers";

  const auto expect_lanes = [&](std::size_t first,
                                std::span<const core::TransmissionOutcome>
                                    got) {
    for (std::size_t j = 0; j < got.size(); ++j) {
      const auto& e = expect[first + j];
      EXPECT_EQ(got[j].delivered, e.delivered) << "lane " << first + j;
      EXPECT_EQ(got[j].preamble_found, e.preamble_found)
          << "lane " << first + j;
      EXPECT_EQ(got[j].corrected_bytes, e.corrected_bytes)
          << "lane " << first + j;
      EXPECT_EQ(got[j].correlation, e.correlation) << "lane " << first + j;
      EXPECT_EQ(got[j].snr_estimate_db, e.snr_estimate_db)
          << "lane " << first + j;
    }
  };
  std::vector<core::TransmissionOutcome> got(n);
  core::JointTransmission::TransmitBatchScratch scratch;
  const std::span<const core::JointTransmission::TransmitJob> all{jobs};
  const std::span<const Rng> streams{noise};
  const auto run_all_then_tail = [&] {
    jt.transmit_batch(all, streams, got, scratch);
    expect_lanes(0, got);
    jt.transmit_batch(all.subspan(3), streams.subspan(3),
                      std::span{got}.first(2), scratch);
    expect_lanes(3, std::span{got}.first(2));
  };
  run_all_then_tail();  // warm-up: both slot shapes have been seen once
  EXPECT_TRUE(expect[0].delivered);
  EXPECT_FALSE(expect[2].delivered);
  EXPECT_FALSE(expect[3].delivered);
  const std::uint64_t before = bench::alloc_count();
  run_all_then_tail();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

TEST_P(Batch, TransmitOneLaneSteadyStateIsAllocationFree) {
  // One lane per transmit_batch call on a scratch kept across calls,
  // lanes of different frame sizes and interference.
  core::Testbed tb = core::make_experimental_testbed();
  const core::JointTransmission jt{tb.led, phy::OokParams{},
                                   phy::FrontEndConfig{}};

  Rng frame_rng{0xB9};
  const auto frame_a = make_frame(120, frame_rng);
  const auto frame_b = make_frame(600, frame_rng);

  const std::vector<core::ServingTx> spot_a{{7, 6e-7, 0.9, 0.0},
                                            {13, 4e-7, 0.9, -0.3e-6}};
  const std::vector<core::ServingTx> spot_b{{21, 8e-7, 0.9, 0.2e-6}};
  std::vector<core::InterfererGroup> groups(1);
  groups[0].txs = {{21, 2e-8, 0.9, 14e-6}};
  groups[0].frame = frame_b;

  const std::vector<core::JointTransmission::TransmitJob> jobs = {
      {spot_a, &frame_a, groups, 0.0},
      {spot_b, &frame_b, {}, 0.0},
  };
  core::JointTransmission::TransmitBatchScratch scratch;
  Rng rng{94};
  core::TransmissionOutcome outcome;

  const auto run_one = [&] {
    for (const auto& job : jobs) {
      jt.transmit_batch({&job, 1}, rng, {&outcome, 1}, scratch);
      ASSERT_TRUE(outcome.delivered);
    }
  };
  run_one();  // warm-up: every lane shape has been seen once
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 3; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

}  // namespace
}  // namespace densevlc
