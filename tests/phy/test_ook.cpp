// Tests for the OOK modulator and demodulator.
#include "phy/ook.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace densevlc::phy {
namespace {

OokParams params() {
  OokParams p;
  p.chip_rate_hz = 100e3;
  p.samples_per_chip = 10;
  p.bias_current_a = 0.45;
  p.swing_current_a = 0.9;
  return p;
}

TEST(OokModulator, ThreeCurrentLevels) {
  const OokModulator mod{params()};
  EXPECT_DOUBLE_EQ(mod.chip_current(Chip::kHigh), 0.9);
  EXPECT_DOUBLE_EQ(mod.chip_current(Chip::kLow), 0.0);
  // Idle (illumination) sits at the bias.
  const auto idle = mod.idle(2);
  for (double s : idle.samples) EXPECT_DOUBLE_EQ(s, 0.45);
}

TEST(OokModulator, WaveformShape) {
  const OokModulator mod{params()};
  const std::vector<Chip> chips{Chip::kHigh, Chip::kLow};
  const auto wf = mod.modulate(chips);
  ASSERT_EQ(wf.samples.size(), 20u);
  EXPECT_DOUBLE_EQ(wf.sample_rate_hz, 1e6);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(wf.samples[i], 0.9);
  for (std::size_t i = 10; i < 20; ++i) EXPECT_DOUBLE_EQ(wf.samples[i], 0.0);
}

TEST(OokModulator, AverageCurrentIsBiasForManchesterData) {
  const OokModulator mod{params()};
  Rng rng{5};
  std::vector<std::uint8_t> bytes(50);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  std::vector<Chip> chips(16 * bytes.size());
  manchester_encode_bytes(bytes, chips);
  const auto wf = mod.modulate(chips);
  double sum = 0.0;
  for (double s : wf.samples) sum += s;
  EXPECT_NEAR(sum / static_cast<double>(wf.samples.size()), 0.45, 1e-12);
}

TEST(OokModulator, FrameWaveformHasGuards) {
  const OokModulator mod{params()};
  MacFrame f;
  f.payload = {1, 2, 3};
  const auto wf = mod.modulate_frame(f, false, 0, 4);
  // First 4 chips at bias.
  for (std::size_t i = 0; i < 4 * 10; ++i) {
    EXPECT_DOUBLE_EQ(wf.samples[i], 0.45);
  }
}

TEST(OokModulator, PilotExtendsFrame) {
  const OokModulator mod{params()};
  MacFrame f;
  f.payload = {9};
  const auto plain = mod.modulate_frame(f, false, 2, 0);
  const auto with_pilot = mod.modulate_frame(f, true, 2, 0);
  // Pilot adds 32 chips plus 16 Manchester chips of leader ID.
  EXPECT_EQ(with_pilot.samples.size() - plain.samples.size(),
            (kPilotChips + 16) * 10);
}

TEST(OokDemodulator, SlicesCleanChips) {
  const OokDemodulator demod{100e3, 1e6};
  // Build an AC-coupled-looking signal: +-1 V chips at 10 samples/chip.
  std::vector<double> signal;
  const std::vector<Chip> chips{Chip::kHigh, Chip::kLow, Chip::kLow,
                                Chip::kHigh};
  for (Chip c : chips) {
    signal.insert(signal.end(), 10, c == Chip::kHigh ? 1.0 : -1.0);
  }
  const auto sliced = demod.slice_chips(signal, 0.0, chips.size());
  EXPECT_EQ(sliced, chips);
}

TEST(OokDemodulator, TemplateMatchesPreambleLength) {
  const OokDemodulator demod{100e3, 1e6};
  EXPECT_EQ(demod.preamble_template().size(), kPreambleChips * 10);
  EXPECT_DOUBLE_EQ(demod.samples_per_chip(), 10.0);
}

TEST(OokDemodulator, ReceivesCleanFrameEndToEnd) {
  // Modulate a frame, AC-couple it ideally (subtract bias), demodulate.
  const OokModulator mod{params()};
  const OokDemodulator demod{100e3, 1e6};
  Rng rng{11};
  MacFrame f;
  f.dst = 1;
  f.src = 0xC0;
  f.payload.resize(100);
  for (auto& b : f.payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  auto wf = mod.modulate_frame(f, false, 0, 8);
  for (double& s : wf.samples) s -= 0.45;  // ideal AC coupling
  const auto res = demod.receive_frame(wf.samples);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->parsed.frame, f);
  EXPECT_EQ(res->manchester_violations, 0u);
  EXPECT_GT(res->correlation, 0.95);
}

TEST(OokDemodulator, SurvivesModerateNoise) {
  const OokModulator mod{params()};
  const OokDemodulator demod{100e3, 1e6};
  Rng rng{12};
  MacFrame f;
  f.payload = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6};
  auto wf = mod.modulate_frame(f, false, 0, 8);
  for (double& s : wf.samples) {
    s = s - 0.45 + rng.gaussian(0.0, 0.10);  // SNR ~ 13 dB on +-0.45
  }
  const auto res = demod.receive_frame(wf.samples);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->parsed.frame, f);
}

TEST(OokDemodulator, NoSignalNoFrame) {
  const OokDemodulator demod{100e3, 1e6};
  Rng rng{13};
  std::vector<double> noise(20000);
  for (double& s : noise) s = rng.gaussian(0.0, 0.2);
  EXPECT_FALSE(demod.receive_frame(noise).has_value());
}

TEST(OokDemodulator, FractionalSamplesPerChip) {
  // frx / chip rate that is not an integer must still decode: 1 Msps over
  // 80 kchips/s = 12.5 samples per chip.
  OokParams p = params();
  p.chip_rate_hz = 80e3;
  const OokModulator mod{p};
  const OokDemodulator demod{80e3, 1e6};
  MacFrame f;
  f.payload = {42, 43, 44};
  auto wf = mod.modulate_frame(f, false, 0, 8);
  // Resample the 800 kHz TX waveform to 1 MHz by zero-order hold.
  std::vector<double> rx;
  const double ratio = wf.sample_rate_hz / 1e6;
  for (std::size_t i = 0;; ++i) {
    const auto src = static_cast<std::size_t>(static_cast<double>(i) * ratio);
    if (src >= wf.samples.size()) break;
    rx.push_back(wf.samples[src] - 0.45);
  }
  const auto res = demod.receive_frame(rx);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->parsed.frame, f);
}

}  // namespace
}  // namespace densevlc::phy
