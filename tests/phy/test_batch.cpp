// Differential suite for the batch-of-frames PHY path.
//
// Every batch entry point (frame_batch codec, OOK modulator/demodulator
// batch calls, front-end quad processing, JointTransmission batch) is
// held bit-for-bit against an equivalent sequence of the scalar per-frame
// calls: same wire bytes, same waveforms, same accept/reject decisions,
// same Rng stream. Like test_fastpath, the whole suite is parameterized
// over the SIMD dispatch so both backends are pinned to the same scalar
// sequence transitively.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
#include "phy/frame_batch.hpp"
#include "phy/frame_codec.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"

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

std::vector<const phy::MacFrame*> frame_ptrs(
    const std::vector<phy::MacFrame>& frames) {
  std::vector<const phy::MacFrame*> ptrs;
  for (const auto& f : frames) ptrs.push_back(&f);
  return ptrs;
}

// --- Batch codec ---------------------------------------------------------

TEST_P(Batch, SerializeFramesMatchesScalar) {
  Rng rng{0xB0};
  const auto frames = make_frames(rng);
  const auto ptrs = frame_ptrs(frames);
  phy::FrameBatch batch;
  phy::serialize_frames_batch(ptrs, batch);
  ASSERT_EQ(batch.lanes.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto expect = phy::serialize_frame(frames[i]);
    const auto got = batch.lane_wire(i);
    ASSERT_EQ(got.size(), expect.size()) << "lane " << i;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
        << "lane " << i;
  }

  phy::MacFrame overlong;
  overlong.payload.resize(phy::kMaxPayload + 1);
  const phy::MacFrame* bad[] = {&overlong};
  EXPECT_THROW(phy::serialize_frames_batch(bad, batch),
               std::invalid_argument);
}

TEST_P(Batch, EncodeFramesMatchesScalarAcrossDepths) {
  Rng rng{0xB1};
  const auto frames = make_frames(rng);
  const auto ptrs = frame_ptrs(frames);
  for (const std::size_t depth : {std::size_t{0}, std::size_t{4}}) {
    const phy::FrameCodec codec{depth};
    phy::FrameBatch batch;
    phy::encode_frames_batch(codec, ptrs, batch);
    phy::FrameCodec::Scratch cscr;
    std::vector<std::uint8_t> expect;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      codec.encode_into(frames[i], expect, cscr);
      const auto got = batch.lane_wire(i);
      ASSERT_EQ(got.size(), expect.size()) << "depth " << depth << " lane " << i;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
          << "depth " << depth << " lane " << i;
    }
  }
}

TEST_P(Batch, DecodeFramesMatchesScalarIncludingCorruptLanes) {
  Rng rng{0xB2};
  const auto frames = make_frames(rng);
  const auto ptrs = frame_ptrs(frames);
  for (const std::size_t depth : {std::size_t{0}, std::size_t{4}}) {
    const phy::FrameCodec codec{depth};
    phy::FrameBatch batch;
    phy::encode_frames_batch(codec, ptrs, batch);

    // Copy the wires out and corrupt a spread of lanes: correctable
    // single-byte hits, an error burst past the RS capacity, and a
    // trashed header. Lanes 0 and 3 stay clean.
    std::vector<std::vector<std::uint8_t>> wires;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto w = batch.lane_wire(i);
      wires.emplace_back(w.begin(), w.end());
    }
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

    std::vector<std::span<const std::uint8_t>> views;
    for (const auto& w : wires) views.emplace_back(w);
    std::vector<phy::ParsedFrame> out(wires.size());
    std::vector<std::uint8_t> ok(wires.size(), 0xEE);
    const std::size_t decoded =
        phy::decode_frames_batch(codec, views, out, ok, batch);

    phy::FrameCodec::Scratch cscr;
    phy::ParsedFrame expect;
    std::size_t expected_decoded = 0;
    bool saw_ok = false;
    bool saw_fail = false;
    for (std::size_t i = 0; i < wires.size(); ++i) {
      const bool scalar_ok = codec.decode_into(views[i], expect, cscr);
      ASSERT_EQ(ok[i] != 0, scalar_ok) << "depth " << depth << " lane " << i;
      (scalar_ok ? saw_ok : saw_fail) = true;
      if (i >= first_reject) {
        EXPECT_FALSE(scalar_ok) << "lane " << i;
      }
      if (scalar_ok) {
        ++expected_decoded;
        EXPECT_EQ(out[i].frame, expect.frame) << "lane " << i;
        EXPECT_EQ(out[i].corrected_bytes, expect.corrected_bytes)
            << "lane " << i;
      }
    }
    EXPECT_EQ(decoded, expected_decoded);
    EXPECT_TRUE(saw_ok);    // the fixture must exercise both outcomes
    EXPECT_TRUE(saw_fail);
  }
}

// --- Batch modulator / demodulator ---------------------------------------

TEST_P(Batch, ModulateBatchMatchesModulateFrame) {
  Rng rng{0xB3};
  const auto frames = make_frames(rng);
  const phy::OokParams params{};
  const phy::OokModulator mod{params};

  std::vector<phy::OokModulator::TxJob> jobs;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    jobs.push_back({&frames[i], (i % 2) == 0,
                    static_cast<std::uint8_t>(0xC0 + i), 4 * i});
  }
  std::vector<dsp::Waveform> got(jobs.size());
  std::vector<dsp::Waveform*> out;
  for (auto& wf : got) out.push_back(&wf);
  phy::OokModulator::TxBatchScratch scratch;
  mod.modulate_batch_into(jobs, out, scratch);

  phy::OokModulator::TxScratch txs;
  dsp::Waveform expect;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    mod.modulate_frame_into(*jobs[i].frame, jobs[i].include_pilot,
                            jobs[i].tx_id, jobs[i].guard_chips, expect, txs);
    ASSERT_EQ(got[i].samples.size(), expect.samples.size()) << "lane " << i;
    EXPECT_EQ(got[i].sample_rate_hz, expect.sample_rate_hz);
    EXPECT_EQ(got[i].samples, expect.samples) << "lane " << i;
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
  phy::OokModulator::TxScratch txs;
  dsp::Waveform wf;
  for (const auto& f : frames) {
    mod.modulate_frame_into(f, false, 0, 8, wf, txs);
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

  phy::OokDemodulator::RxScratch rxs;
  phy::OokDemodulator::RxResult expect;
  std::size_t expected_decoded = 0;
  bool saw_fail = false;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const bool scalar_ok = demod.receive_frame_into(signals[i], expect, rxs);
    ASSERT_EQ(ok[i] != 0, scalar_ok) << "lane " << i;
    saw_fail = saw_fail || !scalar_ok;
    if (scalar_ok) {
      ++expected_decoded;
      EXPECT_EQ(out[i].parsed.frame, expect.parsed.frame) << "lane " << i;
      EXPECT_EQ(out[i].parsed.corrected_bytes, expect.parsed.corrected_bytes);
      EXPECT_EQ(out[i].preamble_at, expect.preamble_at) << "lane " << i;
      EXPECT_EQ(out[i].correlation, expect.correlation) << "lane " << i;
      EXPECT_EQ(out[i].manchester_violations, expect.manchester_violations);
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
      seq_fes[i].process_into(optical[i], expect[i]);
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

TEST_P(Batch, DeepCascadeMatchesScalar) {
  // An order-24 Butterworth is 12 sections, deeper than the x4 kernel
  // stages: such quads must take the scalar cascades, bit for bit.
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
    seq_fes[i].process_into(optical[i], expect[i]);
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

  std::vector<phy::OokModulator::TxJob> jobs;
  for (const auto& f : frames) jobs.push_back({&f, false, 0, 8});
  std::vector<dsp::Waveform> wfs(jobs.size());
  std::vector<dsp::Waveform*> out;
  for (auto& wf : wfs) out.push_back(&wf);
  phy::OokModulator::TxBatchScratch txb;
  phy::OokDemodulator::BatchRxScratch rxb;
  std::vector<std::span<const double>> signals(jobs.size());
  std::vector<phy::OokDemodulator::RxResult> results(jobs.size());
  std::vector<std::uint8_t> ok(jobs.size());

  const auto run_one = [&] {
    mod.modulate_batch_into(jobs, out, txb);
    for (std::size_t i = 0; i < wfs.size(); ++i) {
      for (double& v : wfs[i].samples) v -= params.bias_current_a;
      signals[i] = wfs[i].samples;
    }
    ASSERT_EQ(demod.receive_batch_into(signals, results, ok, rxb),
              jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(results[i].parsed.frame.payload, frames[i].payload);
    }
  };
  run_one();  // warm-up: all batch scratch reaches steady-state capacity
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

}  // namespace
}  // namespace densevlc
