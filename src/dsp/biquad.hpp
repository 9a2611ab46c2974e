// Direct-form-II-transposed biquad sections and cascades.
//
// All IIR filtering in the receiver front-end model (AC coupling,
// anti-aliasing Butterworth) runs through these sections. DF2T is the
// numerically preferred direct form for double-precision audio-rate work.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/waveform.hpp"

namespace densevlc::dsp {

/// Normalized biquad coefficients (a0 == 1 implied):
///   y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
struct BiquadCoeffs {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// One stateful biquad section.
class Biquad {
 public:
  Biquad() = default;
  explicit Biquad(const BiquadCoeffs& c) : c_{c} {}

  /// Processes one sample.
  double step(double x) {
    const double y = c_.b0 * x + s1_;
    s1_ = c_.b1 * x - c_.a1 * y + s2_;
    s2_ = c_.b2 * x - c_.a2 * y;
    return y;
  }

  /// Clears the delay line.
  void reset() { s1_ = s2_ = 0.0; }

  const BiquadCoeffs& coeffs() const { return c_; }

  /// DF2T delay-line state, exposed so the front end's quad kernel can
  /// stage four lanes into struct-of-arrays form and write the state back.
  double state_s1() const { return s1_; }
  double state_s2() const { return s2_; }
  void set_state(double s1, double s2) {
    s1_ = s1;
    s2_ = s2;
  }

 private:
  BiquadCoeffs c_{};
  double s1_ = 0.0, s2_ = 0.0;
};

/// Most sections one sample-major pass keeps in locals: process_block and
/// process_gain_chain take deeper chains in groups of this many, and the
/// front end's quad kernel accepts at most this many.
inline constexpr std::size_t kMaxBiquadSections = 8;

/// A cascade of biquad sections applied in series.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(const std::vector<BiquadCoeffs>& sections);

  /// Processes one sample through every section.
  double step(double x);

  /// Filters a whole waveform (stateful: continues from previous state).
  Waveform process(const Waveform& in);

  /// Filters a block in place, sample-major: each sample runs through
  /// every section before the next sample enters, with coefficients and
  /// delay lines staged in locals so the sections' recurrences overlap.
  /// Sections go in groups of at most kMaxBiquadSections, one block pass
  /// per group, so any depth is handled. Each section performs exactly
  /// Biquad::step's operations on its own input stream, so the output and
  /// final state are bit-identical to chaining step() sample by sample.
  void process_block(std::span<double> x);

  /// Clears all delay lines.
  void reset();

  /// Magnitude response |H(e^{j 2 pi f / fs})| of the cascade.
  double magnitude_at(double freq_hz, double sample_rate_hz) const;

  std::size_t section_count() const { return sections_.size(); }

  /// Section access for the quad kernel's state staging.
  Biquad& section(std::size_t i) { return sections_[i]; }
  const Biquad& section(std::size_t i) const { return sections_[i]; }

 private:
  std::vector<Biquad> sections_;
};

/// Filters `x` in place through `first`, a multiply by `gain`, then
/// `second`, in one pass: each sample runs through the whole chain before
/// the next enters. Bit-identical, output and final state, to
/// first.process_block(x), then x[i] = gain * x[i], then
/// second.process_block(x).
void process_gain_chain(BiquadCascade& first, double gain,
                        BiquadCascade& second, std::span<double> x);

}  // namespace densevlc::dsp
