// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "dsp/dsp_kernels.hpp"

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

/// N consecutive sections over one block, sample-major. The delay lines
/// live in locals rather than in members the output could alias, so no
/// sample waits on a store-to-load round trip, and with N fixed the
/// sections unroll into independent recurrences that overlap.
template <std::size_t N>
void run_sections(Biquad* sec, std::span<double> x) {
  double b0[N], b1[N], b2[N], a1[N], a2[N], s1[N], s2[N];
  for (std::size_t s = 0; s < N; ++s) {
    const BiquadCoeffs& c = sec[s].coeffs();
    b0[s] = c.b0;
    b1[s] = c.b1;
    b2[s] = c.b2;
    a1[s] = c.a1;
    a2[s] = c.a2;
    s1[s] = sec[s].state_s1();
    s2[s] = sec[s].state_s2();
  }
  for (double& v : x) {
    double u = v;
    for (std::size_t s = 0; s < N; ++s) {
      // Biquad::step, operation for operation.
      const double y = b0[s] * u + s1[s];
      s1[s] = b1[s] * u - a1[s] * y + s2[s];
      s2[s] = b2[s] * u - a2[s] * y;
      u = y;
    }
    v = u;
  }
  for (std::size_t s = 0; s < N; ++s) sec[s].set_state(s1[s], s2[s]);
}

}  // namespace

void BiquadCascade::process_block(std::span<double> x) {
  // Each section's output depends only on its own state and input
  // stream, so running the groups one after another is exact.
  for (std::size_t first = 0; first < sections_.size();
       first += kMaxBiquadSections) {
    Biquad* sec = sections_.data() + first;
    switch (std::min(kMaxBiquadSections, sections_.size() - first)) {
      case 1: run_sections<1>(sec, x); break;
      case 2: run_sections<2>(sec, x); break;
      case 3: run_sections<3>(sec, x); break;
      case 4: run_sections<4>(sec, x); break;
      case 5: run_sections<5>(sec, x); break;
      case 6: run_sections<6>(sec, x); break;
      case 7: run_sections<7>(sec, x); break;
      default: run_sections<kMaxBiquadSections>(sec, x); break;
    }
  }
}

Waveform BiquadCascade::process(const Waveform& in) {
  Waveform out = in;
  process_block(out.samples);
  return out;
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

void process_cascades_x4(BiquadCascade* const cascades[4],
                         std::span<double> interleaved) {
  DVLC_EXPECT(interleaved.size() % 4 == 0,
              "x4 block must be 4-lane interleaved");
  const std::size_t sections = cascades[0]->section_count();
  DVLC_EXPECT(sections <= kMaxBiquadSections,
              "cascade too deep for the x4 kernel");
  for (std::size_t l = 1; l < 4; ++l) {
    DVLC_EXPECT(cascades[l]->section_count() == sections,
                "x4 lanes must share the cascade shape");
  }
  // Stage coefficients and delay-line state into lane-major groups of 4.
  double coeffs[kMaxBiquadSections * 20];
  double states[kMaxBiquadSections * 8];
  for (std::size_t s = 0; s < sections; ++s) {
    for (std::size_t l = 0; l < 4; ++l) {
      const Biquad& sec = cascades[l]->section(s);
      const BiquadCoeffs& c = sec.coeffs();
      coeffs[s * 20 + 0 + l] = c.b0;
      coeffs[s * 20 + 4 + l] = c.b1;
      coeffs[s * 20 + 8 + l] = c.b2;
      coeffs[s * 20 + 12 + l] = c.a1;
      coeffs[s * 20 + 16 + l] = c.a2;
      states[s * 8 + 0 + l] = sec.state_s1();
      states[s * 8 + 4 + l] = sec.state_s2();
    }
  }
  const std::size_t samples = interleaved.size() / 4;
  if (simd::use_vector_kernels()) {
    detail::biquad_x4_vec(coeffs, states, sections, interleaved.data(),
                          samples);
  } else {
    detail::biquad_x4_kernel<simd::ScalarBackend>(
        coeffs, states, sections, interleaved.data(), samples);
  }
  for (std::size_t s = 0; s < sections; ++s) {
    for (std::size_t l = 0; l < 4; ++l) {
      cascades[l]->section(s).set_state(states[s * 8 + 0 + l],
                                        states[s * 8 + 4 + l]);
    }
  }
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
