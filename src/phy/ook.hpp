// OOK modulation with variable swing around the illumination bias
// (paper Secs. 3.3 and 7.1).
//
// The TX front-end drives the LED at three levels: Il = Ib - Isw/2 for a
// LOW chip, Ib when idling in illumination mode, Ih = Ib + Isw/2 for a
// HIGH chip. The modulator renders chip sequences into LED current
// waveforms; the demodulator recovers chips from the AC-coupled receiver
// voltage by mid-chip integration and sign slicing, then rebuilds frames.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/correlate.hpp"
#include "dsp/waveform.hpp"
#include "phy/frame.hpp"
#include "phy/manchester.hpp"

namespace densevlc::phy {

/// Modulation parameters shared by TX and RX.
struct OokParams {
  double chip_rate_hz = 100e3;    ///< on-air chips per second
  std::size_t samples_per_chip = 10;  ///< waveform oversampling at the TX
  double bias_current_a = 0.45;   ///< Ib
  double swing_current_a = 0.9;   ///< Isw assigned by the controller

  /// TX waveform sample rate implied by the parameters.
  double sample_rate_hz() const {
    return chip_rate_hz * static_cast<double>(samples_per_chip);
  }
};

/// Renders chip sequences into LED current waveforms.
class OokModulator {
 public:
  explicit OokModulator(const OokParams& params) : params_{params} {}

  const OokParams& params() const { return params_; }

  /// Current level of a chip [A].
  double chip_current(Chip chip) const;

  /// Renders chips into a current waveform (no idle padding).
  dsp::Waveform modulate(std::span<const Chip> chips) const;

  /// Renders `idle_chips` of illumination-level bias current.
  dsp::Waveform idle(std::size_t idle_chips) const;

  /// Full frame waveform: optional pilot + TX id byte (leading TX only),
  /// preamble, Manchester data; padded with `guard_chips` of bias before
  /// and after.
  dsp::Waveform modulate_frame(const MacFrame& frame, bool include_pilot,
                               std::uint8_t tx_id,
                               std::size_t guard_chips) const;

 private:
  OokParams params_;
};

/// Mean of the central half of the chip that starts at sample `start`
/// and spans `spc` samples: samples start + spc/4 through
/// start + 3 spc/4 (truncated, clamped at 0), which dodges the edge
/// transients. nullopt when the chip lies past the end of `signal`.
/// Inline: the data path calls it once per chip.
inline std::optional<double> central_chip_mean(std::span<const double> signal,
                                               double start, double spc) {
  const auto lo = static_cast<std::size_t>(std::max(0.0, start + 0.25 * spc));
  const auto hi = static_cast<std::size_t>(std::max(0.0, start + 0.75 * spc));
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t s = lo; s <= hi && s < signal.size(); ++s) {
    acc += signal[s];
    ++n;
  }
  if (n == 0) return std::nullopt;
  return acc / static_cast<double>(n);
}

/// Chip-level and frame-level demodulation of AC-coupled RX voltages.
class OokDemodulator {
 public:
  /// `sample_rate_hz` is the rate of waveforms handed to the demodulator
  /// (the ADC rate), independent of the TX oversampling.
  OokDemodulator(double chip_rate_hz, double sample_rate_hz)
      : chip_rate_hz_{chip_rate_hz}, sample_rate_hz_{sample_rate_hz} {}

  /// Slices `count` chips from `signal` starting at sample `offset`.
  /// Decision: the sign of each chip's central_chip_mean around zero
  /// (valid after AC coupling); a chip past the signal is kLow.
  std::vector<Chip> slice_chips(std::span<const double> signal,
                                double offset_samples,
                                std::size_t count) const;

  /// Builds the reference waveform (+1/-1 chips) of a chip pattern at the
  /// demodulator sample rate, for correlation search.
  std::vector<double> pattern_template(std::span<const Chip> pattern) const;

  /// pattern_template of the data preamble.
  std::vector<double> preamble_template() const;

  /// Result of a frame reception attempt.
  struct RxResult {
    ParsedFrame parsed;                ///< decoded frame
    std::size_t preamble_at = 0;       ///< sample index of preamble start
    double correlation = 0.0;          ///< preamble correlation score
    std::size_t manchester_violations = 0;
  };

  /// Searches for a preamble and decodes one frame from the signal: a
  /// one-lane receive_batch_into. `min_correlation` rejects
  /// noise-triggered syncs. Returns nullopt when no preamble is found or
  /// the frame fails to decode (counts as a frame error at the MAC).
  std::optional<RxResult> receive_frame(std::span<const double> signal,
                                        double min_correlation = 0.6) const;

  // --- Zero-allocation overloads (see common/arena.hpp) -----------------

  /// slice_chips into a reused chip buffer.
  void slice_chips_into(std::span<const double> signal, double offset_samples,
                        std::size_t count, std::vector<Chip>& out) const;

  /// pattern_template into a reused buffer.
  void pattern_template_into(std::span<const Chip> pattern,
                             std::vector<double>& tpl) const;

  /// preamble_template into a reused buffer. Rebuilt from the pattern each
  /// call (cheap), so the scratch can never go stale across demodulators.
  void preamble_template_into(std::vector<double>& tpl) const;

  // --- Batch path -------------------------------------------------------

  /// Receive workspace shared by every lane: template, correlation, chip
  /// slicing, the decoded wire bytes and the frame parse.
  struct BatchRxScratch {
    std::vector<double> preamble_tpl;
    dsp::CorrelateScratch correlate;
    std::vector<Chip> chips;
    std::vector<std::uint8_t> bytes;
    FrameParseScratch parse;
  };

  /// Receives one frame per signal lane, one lane at a time: preamble
  /// search, header peek, chip slicing, lenient byte-at-a-time Manchester
  /// decode and parse_frame_into. Each lane's out[i]/ok[i] depend on
  /// signals[i] alone; failed lanes (ok[i] == 0) must not be read.
  /// Returns the number of decoded lanes.
  std::size_t receive_batch_into(
      std::span<const std::span<const double>> signals,
      std::span<RxResult> out, std::span<std::uint8_t> ok,
      BatchRxScratch& scratch, double min_correlation = 0.6) const;

  double samples_per_chip() const { return sample_rate_hz_ / chip_rate_hz_; }

 private:
  double chip_rate_hz_;
  double sample_rate_hz_;
};

}  // namespace densevlc::phy
