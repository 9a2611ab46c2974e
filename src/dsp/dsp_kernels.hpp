// Backend-generic vector kernels for the DSP hot loops.
//
// Each kernel is a template over a simd backend (common/simd.hpp) and is
// instantiated twice: for `simd::ScalarBackend` inside the regular TUs
// (biquad.cpp, correlate.cpp) and for `simd::VectorBackend` inside
// dsp_simd.cpp, which is the only DSP TU compiled with the vector ISA
// flags. Call sites pick between the two at runtime via
// `simd::use_vector_kernels()`.
//
// Bit-exactness: the float kernels vectorize ACROSS independent streams
// (4 cascade lanes, 4 correlation window positions, 16 tap-sum
// positions), never within one accumulation chain, and the backends use
// separate mul/add (no FMA), so every per-lane operation sequence
// matches the scalar reference rounding-for-rounding. See docs/architecture.md "Performance".
#pragma once

#include <cmath>
#include <cstddef>

#include "common/simd.hpp"
#include "dsp/biquad.hpp"

namespace densevlc::dsp::detail {

/// Four equally-shaped DF2T cascades advanced in lockstep.
///
/// Layouts (lane-major groups of 4):
///   coeffs[s*20 + {b0,b1,b2,a1,a2}*4 + lane]
///   states[s*8 + {s1,s2}*4 + lane]
///   x[t*4 + lane]  (interleaved samples, filtered in place)
///
/// Per lane this performs exactly Biquad::step's operation sequence for
/// each sample through each section, in the same sample-major schedule as
/// BiquadCascade::process_block, hence bit-identical. At most
/// kMaxBiquadSections sections (dsp/biquad.hpp).
template <class B>
void biquad_x4_kernel(const double* coeffs, double* states,
                      std::size_t sections, double* x,
                      std::size_t samples) {
  using V = typename B::f64x4;
  V b0[kMaxBiquadSections], b1[kMaxBiquadSections], b2[kMaxBiquadSections];
  V a1[kMaxBiquadSections], a2[kMaxBiquadSections];
  V s1[kMaxBiquadSections], s2[kMaxBiquadSections];
  for (std::size_t s = 0; s < sections; ++s) {
    b0[s] = B::load4(coeffs + s * 20 + 0);
    b1[s] = B::load4(coeffs + s * 20 + 4);
    b2[s] = B::load4(coeffs + s * 20 + 8);
    a1[s] = B::load4(coeffs + s * 20 + 12);
    a2[s] = B::load4(coeffs + s * 20 + 16);
    s1[s] = B::load4(states + s * 8 + 0);
    s2[s] = B::load4(states + s * 8 + 4);
  }
  for (std::size_t t = 0; t < samples; ++t) {
    V v = B::load4(x + t * 4);
    for (std::size_t s = 0; s < sections; ++s) {
      const V y = B::add4(B::mul4(b0[s], v), s1[s]);
      s1[s] = B::add4(B::sub4(B::mul4(b1[s], v), B::mul4(a1[s], y)), s2[s]);
      s2[s] = B::sub4(B::mul4(b2[s], v), B::mul4(a2[s], y));
      v = y;
    }
    B::store4(x + t * 4, v);
  }
  for (std::size_t s = 0; s < sections; ++s) {
    B::store4(states + s * 8 + 0, s1[s]);
    B::store4(states + s * 8 + 4, s2[s]);
  }
}

/// Normalized-correlation scores for `n` window positions, 4 at a time.
/// `means[i]`/`vars[i]` are the rolling window statistics precomputed by
/// the caller with the reference recurrence; per position the dot product
/// accumulates over j in the same order as the scalar reference.
template <class B>
void correlate_scores_kernel(const double* signal, const double* pat,
                             std::size_t m, const double* means,
                             const double* vars, double pat_energy,
                             double* scores, std::size_t n) {
  using V = typename B::f64x4;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    V acc = B::broadcast4(0.0);
    const V mean = B::load4(means + i);
    for (std::size_t j = 0; j < m; ++j) {
      acc = B::add4(acc, B::mul4(B::sub4(B::load4(signal + i + j), mean),
                                 B::broadcast4(pat[j])));
    }
    double dots[4];
    B::store4(dots, acc);
    for (std::size_t l = 0; l < 4; ++l) {
      const double var = vars[i + l];
      scores[i + l] =
          var > 1e-30 ? dots[l] / std::sqrt(var * pat_energy) : 0.0;
    }
  }
  for (; i < n; ++i) {
    const double var = vars[i];
    double score = 0.0;
    if (var > 1e-30) {
      const double mean = means[i];
      double dot = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        dot += (signal[i + j] - mean) * pat[j];
      }
      score = dot / std::sqrt(var * pat_energy);
    }
    scores[i] = score;
  }
}

/// Run-length approximate dot products for the pruned preamble search:
/// out[i] = sum over taps t of w[t] * prefix[i + at[t]], accumulated in
/// tap order. `prefix` holds the signal's running sums, so each tap is
/// one run boundary of the mean-removed pattern. Sixteen positions per
/// step (four independent accumulators) hide the add latency; per
/// position the operation sequence is the scalar tail's, so both
/// backends produce the same values.
template <class B>
void tap_sums_kernel(const double* prefix, const std::size_t* at,
                     const double* w, std::size_t taps, double* out,
                     std::size_t n) {
  using V = typename B::f64x4;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    V acc0 = B::broadcast4(0.0);
    V acc1 = acc0;
    V acc2 = acc0;
    V acc3 = acc0;
    for (std::size_t t = 0; t < taps; ++t) {
      const V wt = B::broadcast4(w[t]);
      const double* p = prefix + i + at[t];
      acc0 = B::add4(acc0, B::mul4(wt, B::load4(p)));
      acc1 = B::add4(acc1, B::mul4(wt, B::load4(p + 4)));
      acc2 = B::add4(acc2, B::mul4(wt, B::load4(p + 8)));
      acc3 = B::add4(acc3, B::mul4(wt, B::load4(p + 12)));
    }
    B::store4(out + i, acc0);
    B::store4(out + i + 4, acc1);
    B::store4(out + i + 8, acc2);
    B::store4(out + i + 12, acc3);
  }
  for (; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t t = 0; t < taps; ++t) acc += w[t] * prefix[i + at[t]];
    out[i] = acc;
  }
}

// --- Vector-backend entry points (defined in dsp_simd.cpp) ---------------

void biquad_x4_vec(const double* coeffs, double* states,
                   std::size_t sections, double* x, std::size_t samples);
void correlate_scores_vec(const double* signal, const double* pat,
                          std::size_t m, const double* means,
                          const double* vars, double pat_energy,
                          double* scores, std::size_t n);
void tap_sums_vec(const double* prefix, const std::size_t* at,
                  const double* w, std::size_t taps, double* out,
                  std::size_t n);

}  // namespace densevlc::dsp::detail
