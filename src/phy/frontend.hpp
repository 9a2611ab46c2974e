// Receiver analog front-end model (paper Sec. 7.1, Fig. 16).
//
// Three stages, mirroring the hardware: (1) an S5971 photodiode feeding a
// low-noise transimpedance amplifier, (2) an AC-coupled gain stage that
// strips ambient light and the illumination bias, enabling detection of
// very weak signals such as floor-reflected pilots, (3) a 7th-order
// Butterworth anti-aliasing low-pass in front of a 1 Msps ADC.
//
// Noise enters as additive white Gaussian photocurrent with single-sided
// spectral density N0 (Table 1: 7.02e-23 A^2/Hz), which over the sampled
// bandwidth fs/2 gives a per-sample current variance of N0 * fs / 2.
#pragma once

#include <span>

#include "common/quantity.hpp"
#include "common/rng.hpp"
#include "dsp/adc.hpp"
#include "dsp/biquad.hpp"
#include "dsp/waveform.hpp"

namespace densevlc::phy {

/// Front-end configuration. Defaults model the paper's BBB-cape RX.
struct FrontEndConfig {
  double responsivity_a_per_w = 0.4;     ///< photodiode R [A/W]
  double tia_gain_ohm = 50e3;            ///< transimpedance stage [V/A]
  double ac_gain = 20.0;                 ///< AC-coupled amplifier gain
  double ac_corner_hz = 1e3;             ///< AC-coupling high-pass corner
  double noise_psd_a2_per_hz = 7.02e-23; ///< N0, single-sided [A^2/Hz]
  std::size_t butterworth_order = 7;     ///< anti-aliasing filter order
  double butterworth_corner_hz = 400e3;  ///< LP corner before 1 Msps ADC
  dsp::AdcConfig adc{};                  ///< converter parameters

  bool operator==(const FrontEndConfig&) const = default;
};

/// Stateful receive chain: optical power waveform in, digitized (and
/// re-centered to zero-mean) voltage waveform out.
class ReceiverFrontEnd {
 public:
  /// `rng` seeds the noise process; each front-end owns its substream.
  ReceiverFrontEnd(const FrontEndConfig& cfg, Rng rng);

  const FrontEndConfig& config() const { return cfg_; }

  /// Processes a waveform of instantaneous received optical power [W]
  /// sampled at `optical.sample_rate_hz`: a one-lane process_batch_into.
  /// Returns the ADC output voltage referenced to mid-rail (i.e.
  /// zero-mean for a DC-free signal), at the ADC sample rate. Stateful
  /// across calls — filters keep their delay lines so back-to-back calls
  /// model a continuous stream.
  dsp::Waveform process(const dsp::Waveform& optical);

  /// Resets all filter state (fresh reception).
  void reset();

  /// Resets all filter state and continues on noise stream `rng`: the
  /// state of a fresh ReceiverFrontEnd{config(), rng}, without redesigning
  /// (and reallocating) the filters.
  void restart(Rng rng);

  /// Batch workspace parameter of process_batch_into. Empty: the quad
  /// kernel filters the lanes in place, so a call needs no staging.
  struct BatchScratch {};

  /// Processes many independent front-ends in one call: *out[i] is
  /// fes[i] processing *optical[i] alone. Per lane: zero-order-hold
  /// resample, photocurrent noise drawn per sample from the lane's own
  /// stream, TIA, AC-coupled gain, anti-aliasing low-pass, ADC round trip.
  /// The filter stages (AC section, gain, low-pass) run four lanes at a
  /// time, in place, through one quad kernel, bit-identical to the
  /// one-lane pass. Lanes are grouped in encounter order; groups with
  /// mismatched filter shapes or chains deeper than
  /// dsp::kMaxBiquadSections, and ragged tails and leftover lanes, run the
  /// one-lane pass, whose state continues seamlessly. Zero heap
  /// allocations once the outputs have warmed up.
  static void process_batch_into(std::span<ReceiverFrontEnd* const> fes,
                                 std::span<const dsp::Waveform* const> optical,
                                 std::span<dsp::Waveform* const> out,
                                 BatchScratch& scratch);

  /// process_batch_into up to the ADC input: *out[i] is lane i's
  /// anti-aliased voltage, referenced to mid-rail, before quantization.
  /// process_batch_into is this call followed by each lane's ADC round
  /// trip, so the quad and one-lane paths can be compared bit for bit
  /// where the converter cannot yet hide an ulp.
  static void analog_batch_into(std::span<ReceiverFrontEnd* const> fes,
                                std::span<const dsp::Waveform* const> optical,
                                std::span<dsp::Waveform* const> out,
                                BatchScratch& scratch);

  /// Per-sample standard deviation of the photocurrent noise at the given
  /// processing rate: sqrt(N0 * fs / 2), where sqrt(A^2/Hz * Hz) = A is
  /// derived by the quantity algebra.
  Amperes noise_current_sigma(Hertz sample_rate) const;

 private:
  // The analog stages, split so analog_batch_into can run them per lane
  // / per quad: ZOH resample + noise + TIA, then the AC-coupled gain and
  // anti-aliasing filters in one one-lane pass over `x`.
  void front_half_into(const dsp::Waveform& optical, dsp::Waveform& out);
  void filters_into(std::span<double> x);

  FrontEndConfig cfg_;
  Rng rng_;
  dsp::Adc adc_;
  dsp::BiquadCascade ac_stage_;
  dsp::BiquadCascade lowpass_;
  double mid_rail_ = 0.0;
};

}  // namespace densevlc::phy
