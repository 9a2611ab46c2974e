// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/ook.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "dsp/correlate.hpp"

namespace densevlc::phy {
namespace {

// Receive front half of one lane: preamble search, header peek for the
// length, then chip slicing and lenient Manchester decode of the whole
// frame into `bytes`. Fills the sync fields of `out`; false when no
// preamble is found or the header is unreadable. Only the parse of
// `bytes` is left to the caller.
bool receive_wire_into(const OokDemodulator& demod,
                       std::span<const double> signal,
                       std::span<const double> tpl, double min_correlation,
                       dsp::CorrelateScratch& correlate,
                       std::vector<Chip>& chips,
                       std::vector<std::uint8_t>& bytes,
                       OokDemodulator::RxResult& out) {
  const auto peak =
      dsp::detect_pattern_into(signal, tpl, min_correlation, correlate);
  if (!peak) return false;
  const double data_start =
      static_cast<double>(peak->index) +
      static_cast<double>(kPreambleChips) * demod.samples_per_chip();

  // Header bytes first (16 chips per byte), for the length field.
  demod.slice_chips_into(signal, data_start, kHeaderBytes * 16, chips);
  std::array<std::uint8_t, kHeaderBytes> head_bytes{};
  manchester_decode_bytes_lenient(chips, head_bytes);
  const auto header = read_frame_header(head_bytes);
  if (!header) return false;

  const std::size_t total_bytes = serialized_frame_bytes(header->length);
  demod.slice_chips_into(signal, data_start, total_bytes * 16, chips);
  arena_resize(bytes, total_bytes);
  out.manchester_violations = manchester_decode_bytes_lenient(chips, bytes);
  out.preamble_at = peak->index;
  out.correlation = peak->score;
  return true;
}

}  // namespace

double OokModulator::chip_current(Chip chip) const {
  const double half = params_.swing_current_a / 2.0;
  return chip == Chip::kHigh ? params_.bias_current_a + half
                             : params_.bias_current_a - half;
}

dsp::Waveform OokModulator::modulate(std::span<const Chip> chips) const {
  dsp::Waveform wf;
  wf.sample_rate_hz = params_.sample_rate_hz();
  const std::size_t spc = params_.samples_per_chip;
  arena_resize(wf.samples, chips.size() * spc);
  std::size_t w = 0;
  for (Chip c : chips) {
    const double level = chip_current(c);
    for (std::size_t s = 0; s < spc; ++s) wf.samples[w++] = level;
  }
  return wf;
}

dsp::Waveform OokModulator::idle(std::size_t idle_chips) const {
  dsp::Waveform wf;
  wf.sample_rate_hz = params_.sample_rate_hz();
  wf.samples.assign(idle_chips * params_.samples_per_chip,
                    params_.bias_current_a);
  return wf;
}

dsp::Waveform OokModulator::modulate_frame(const MacFrame& frame,
                                           bool include_pilot,
                                           std::uint8_t tx_id,
                                           std::size_t guard_chips) const {
  // Assemble the on-air chip sequence: [pilot + id] preamble + data.
  std::vector<Chip> chips;
  if (include_pilot) chips = leader_chips(tx_id);
  const std::vector<Chip> frame_chips = frame_to_chips(frame);
  chips.insert(chips.end(), frame_chips.begin(), frame_chips.end());

  // Bias guard, the chips, bias guard.
  const dsp::Waveform guard = idle(guard_chips);
  dsp::Waveform wf = modulate(chips);
  wf.samples.insert(wf.samples.begin(), guard.samples.begin(),
                    guard.samples.end());
  wf.samples.insert(wf.samples.end(), guard.samples.begin(),
                    guard.samples.end());
  return wf;
}

void OokDemodulator::slice_chips_into(std::span<const double> signal,
                                      double offset_samples, std::size_t count,
                                      std::vector<Chip>& out) const {
  arena_resize(out, count);
  const double spc = samples_per_chip();
  for (std::size_t i = 0; i < count; ++i) {
    const double start = offset_samples + static_cast<double>(i) * spc;
    const auto mean = central_chip_mean(signal, start, spc);
    out[i] = mean && *mean > 0.0 ? Chip::kHigh : Chip::kLow;
  }
}

std::vector<Chip> OokDemodulator::slice_chips(std::span<const double> signal,
                                              double offset_samples,
                                              std::size_t count) const {
  std::vector<Chip> chips;
  slice_chips_into(signal, offset_samples, count, chips);
  return chips;
}

void OokDemodulator::pattern_template_into(std::span<const Chip> pattern,
                                           std::vector<double>& tpl) const {
  const double spc = samples_per_chip();
  const auto total = static_cast<std::size_t>(
      std::ceil(static_cast<double>(pattern.size()) * spc));
  arena_resize(tpl, total);
  for (std::size_t s = 0; s < total; ++s) {
    const auto chip_idx = std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(s) / spc),
        pattern.size() - 1);
    tpl[s] = pattern[chip_idx] == Chip::kHigh ? 1.0 : -1.0;
  }
}

std::vector<double> OokDemodulator::pattern_template(
    std::span<const Chip> pattern) const {
  std::vector<double> tpl;
  pattern_template_into(pattern, tpl);
  return tpl;
}

void OokDemodulator::preamble_template_into(std::vector<double>& tpl) const {
  pattern_template_into(preamble_pattern(), tpl);
}

std::vector<double> OokDemodulator::preamble_template() const {
  return pattern_template(preamble_pattern());
}

std::size_t OokDemodulator::receive_batch_into(
    std::span<const std::span<const double>> signals, std::span<RxResult> out,
    std::span<std::uint8_t> ok, BatchRxScratch& scratch,
    double min_correlation) const {
  const std::size_t n = signals.size();
  DVLC_EXPECT(out.size() == n && ok.size() == n,
              "receive_batch_into: span sizes must match");
  preamble_template_into(scratch.preamble_tpl);
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool good =
        receive_wire_into(*this, signals[i], scratch.preamble_tpl,
                          min_correlation, scratch.correlate, scratch.chips,
                          scratch.bytes, out[i]) &&
        parse_frame_into(scratch.bytes, out[i].parsed, scratch.parse);
    ok[i] = good ? 1 : 0;
    decoded += ok[i];
  }
  return decoded;
}

std::optional<OokDemodulator::RxResult> OokDemodulator::receive_frame(
    std::span<const double> signal, double min_correlation) const {
  const std::span<const double> lane[] = {signal};
  RxResult out;
  std::uint8_t ok = 0;
  BatchRxScratch scratch;
  if (receive_batch_into(lane, {&out, 1}, {&ok, 1}, scratch,
                         min_correlation) == 0) {
    return std::nullopt;
  }
  return out;
}

}  // namespace densevlc::phy
