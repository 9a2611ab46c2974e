// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>

#include "common/units.hpp"

namespace densevlc::dsp {

BiquadCascade::BiquadCascade(const std::vector<BiquadCoeffs>& sections) {
  sections_.reserve(sections.size());
  // DVLC_LINT_WAIVE(hot-loop-alloc): one-time construction, reserved above
  for (const auto& c : sections) sections_.emplace_back(c);
}

double BiquadCascade::step(double x) {
  for (auto& s : sections_) x = s.step(x);
  return x;
}

namespace {

constexpr std::size_t kNoGain = SIZE_MAX;

/// N sections in series over one block, sample-major, with each sample
/// multiplied by `gain` before section `gain_at` (after the last one when
/// gain_at == N; never when it is kNoGain). The delay lines live in
/// locals rather than in members the output could alias, so no sample
/// waits on a store-to-load round trip, and with N fixed the sections
/// unroll into independent recurrences that overlap.
template <std::size_t N>
void run_sections(Biquad* const* sec, std::span<double> x,
                  std::size_t gain_at, double gain) {
  double b0[N], b1[N], b2[N], a1[N], a2[N], s1[N], s2[N];
  for (std::size_t s = 0; s < N; ++s) {
    const BiquadCoeffs& c = sec[s]->coeffs();
    b0[s] = c.b0;
    b1[s] = c.b1;
    b2[s] = c.b2;
    a1[s] = c.a1;
    a2[s] = c.a2;
    s1[s] = sec[s]->state_s1();
    s2[s] = sec[s]->state_s2();
  }
  for (double& v : x) {
    double u = v;
    for (std::size_t s = 0; s < N; ++s) {
      if (s == gain_at) u = gain * u;
      // Biquad::step, operation for operation.
      const double y = b0[s] * u + s1[s];
      s1[s] = b1[s] * u - a1[s] * y + s2[s];
      s2[s] = b2[s] * u - a2[s] * y;
      u = y;
    }
    v = gain_at == N ? gain * u : u;
  }
  for (std::size_t s = 0; s < N; ++s) sec[s]->set_state(s1[s], s2[s]);
}

/// Sections [0, count) of `section(i)` in series over x, with the gain
/// multiply before section gain_at (after the last when gain_at ==
/// count). Each section's output depends only on its own state and input
/// stream, so a chain deeper than kMaxBiquadSections runs exactly as one
/// block pass per group of sections.
template <class Section>
void run_chain(std::size_t count, Section section, std::span<double> x,
               std::size_t gain_at, double gain) {
  for (std::size_t first = 0; first < count; first += kMaxBiquadSections) {
    const std::size_t n = std::min(kMaxBiquadSections, count - first);
    Biquad* sec[kMaxBiquadSections];
    for (std::size_t s = 0; s < n; ++s) sec[s] = &section(first + s);
    // The gain belongs to the group holding section gain_at, or to the
    // last group when it comes after every section.
    const bool here = (gain_at >= first && gain_at < first + n) ||
                      (gain_at == count && first + n == count);
    const std::size_t at = here ? gain_at - first : kNoGain;
    switch (n) {
      case 1: run_sections<1>(sec, x, at, gain); break;
      case 2: run_sections<2>(sec, x, at, gain); break;
      case 3: run_sections<3>(sec, x, at, gain); break;
      case 4: run_sections<4>(sec, x, at, gain); break;
      case 5: run_sections<5>(sec, x, at, gain); break;
      case 6: run_sections<6>(sec, x, at, gain); break;
      case 7: run_sections<7>(sec, x, at, gain); break;
      default: run_sections<kMaxBiquadSections>(sec, x, at, gain); break;
    }
  }
}

}  // namespace

void BiquadCascade::process_block(std::span<double> x) {
  run_chain(
      sections_.size(), [&](std::size_t i) -> Biquad& { return sections_[i]; },
      x, kNoGain, 1.0);
}

void process_gain_chain(BiquadCascade& first, double gain,
                        BiquadCascade& second, std::span<double> x) {
  const std::size_t split = first.section_count();
  const auto section = [&](std::size_t i) -> Biquad& {
    return i < split ? first.section(i) : second.section(i - split);
  };
  const std::size_t count = split + second.section_count();
  if (count == 0) {
    for (double& v : x) v = gain * v;
    return;
  }
  run_chain(count, section, x, split, gain);
}

Waveform BiquadCascade::process(const Waveform& in) {
  Waveform out = in;
  process_block(out.samples);
  return out;
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

double BiquadCascade::magnitude_at(double freq_hz,
                                   double sample_rate_hz) const {
  const double omega = 2.0 * kPi * freq_hz / sample_rate_hz;
  const std::complex<double> z_inv = std::polar(1.0, -omega);
  std::complex<double> h{1.0, 0.0};
  for (const auto& s : sections_) {
    const auto& c = s.coeffs();
    const std::complex<double> num =
        c.b0 + c.b1 * z_inv + c.b2 * z_inv * z_inv;
    const std::complex<double> den =
        1.0 + c.a1 * z_inv + c.a2 * z_inv * z_inv;
    h *= num / den;
  }
  return std::abs(h);
}

}  // namespace densevlc::dsp
