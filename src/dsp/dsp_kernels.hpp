// Backend-generic vector kernels for the DSP hot loops.
//
// Each kernel is a template over a simd backend (common/simd.hpp) and is
// instantiated twice: for `simd::ScalarBackend` inside the regular TUs
// (adc.cpp, correlate.cpp, phy/frontend.cpp, core/beamspot.cpp) and for
// `simd::VectorBackend` inside dsp_simd.cpp, which is the only DSP TU
// compiled with the vector ISA flags. Call sites pick between the two at
// runtime via `simd::use_vector_kernels()`.
//
// Bit-exactness: the float kernels vectorize ACROSS independent streams
// (4 filter lanes, 16 tap-sum positions, 4 samples, search positions
// or row positions of the elementwise kernels),
// never within one accumulation chain, and the backends use separate
// mul/add (no FMA), so every per-lane operation sequence matches the
// scalar reference rounding-for-rounding. See docs/architecture.md
// "Performance".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>

#include "common/simd.hpp"
#include "dsp/biquad.hpp"

namespace densevlc::dsp::detail {

/// Sections [0, N) of four equally-shaped DF2T cascades over one sample
/// of each lane, with the lane's gain multiplied in before section
/// `gain_at` (after the last one when gain_at == N): per lane exactly
/// Biquad::step's operations, section by section, and the gain multiply.
template <class B, std::size_t N>
struct QuadChain {
  using V = typename B::f64x4;
  V b0[N], b1[N], b2[N], a1[N], a2[N], s1[N], s2[N];

  V step(V v, std::size_t gain_at, V gain) {
    for (std::size_t s = 0; s < N; ++s) {
      if (s == gain_at) v = B::mul4(gain, v);
      const V y = B::add4(B::mul4(b0[s], v), s1[s]);
      s1[s] = B::add4(B::sub4(B::mul4(b1[s], v), B::mul4(a1[s], y)), s2[s]);
      s2[s] = B::sub4(B::mul4(b2[s], v), B::mul4(a2[s], y));
      v = y;
    }
    return gain_at == N ? B::mul4(gain, v) : v;
  }
};

template <class B, std::size_t N>
void filter_quad_sections(double* const x[4], std::size_t n,
                          const double* coeffs, double* states,
                          std::size_t gain_at, const double* gains) {
  using V = typename B::f64x4;
  QuadChain<B, N> c;
  for (std::size_t s = 0; s < N; ++s) {
    c.b0[s] = B::load4(coeffs + s * 20 + 0);
    c.b1[s] = B::load4(coeffs + s * 20 + 4);
    c.b2[s] = B::load4(coeffs + s * 20 + 8);
    c.a1[s] = B::load4(coeffs + s * 20 + 12);
    c.a2[s] = B::load4(coeffs + s * 20 + 16);
    c.s1[s] = B::load4(states + s * 8 + 0);
    c.s2[s] = B::load4(states + s * 8 + 4);
  }
  const V gain = B::load4(gains);
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    // Rows in: r_l holds samples t..t+3 of lane l. Transposed, r_k holds
    // sample t+k of every lane, so the samples enter in order.
    V r0 = B::load4(x[0] + t);
    V r1 = B::load4(x[1] + t);
    V r2 = B::load4(x[2] + t);
    V r3 = B::load4(x[3] + t);
    B::transpose4(r0, r1, r2, r3);
    r0 = c.step(r0, gain_at, gain);
    r1 = c.step(r1, gain_at, gain);
    r2 = c.step(r2, gain_at, gain);
    r3 = c.step(r3, gain_at, gain);
    B::transpose4(r0, r1, r2, r3);
    B::store4(x[0] + t, r0);
    B::store4(x[1] + t, r1);
    B::store4(x[2] + t, r2);
    B::store4(x[3] + t, r3);
  }
  for (; t < n; ++t) {
    double v[4] = {x[0][t], x[1][t], x[2][t], x[3][t]};
    B::store4(v, c.step(B::load4(v), gain_at, gain));
    for (std::size_t l = 0; l < 4; ++l) x[l][t] = v[l];
  }
  for (std::size_t s = 0; s < N; ++s) {
    B::store4(states + s * 8 + 0, c.s1[s]);
    B::store4(states + s * 8 + 4, c.s2[s]);
  }
}

/// The front end's filter stages over four lanes in place: each of the
/// first n samples of x[lane] runs through sections [0, gain_at), is
/// multiplied by gains[lane], and runs through sections
/// [gain_at, sections). Per lane this is the one-lane pass
/// (dsp::process_gain_chain) operation for operation, hence bit-identical.
///
/// Layouts (lane-major groups of 4):
///   coeffs[s*20 + {b0,b1,b2,a1,a2}*4 + lane]
///   states[s*8 + {s1,s2}*4 + lane]  (read, then written back)
///
/// Whole groups of four samples go through a 4x4 transpose in and out;
/// the last n % 4 are gathered lane by lane. At most kMaxBiquadSections
/// sections (dsp/biquad.hpp).
template <class B>
void filter_quad_kernel(double* const x[4], std::size_t n,
                        const double* coeffs, double* states,
                        std::size_t sections, std::size_t gain_at,
                        const double* gains) {
  const auto run = [&](auto width) {
    filter_quad_sections<B, decltype(width)::value>(x, n, coeffs, states,
                                                    gain_at, gains);
  };
  using std::integral_constant;
  switch (sections) {
    case 1: return run(integral_constant<std::size_t, 1>{});
    case 2: return run(integral_constant<std::size_t, 2>{});
    case 3: return run(integral_constant<std::size_t, 3>{});
    case 4: return run(integral_constant<std::size_t, 4>{});
    case 5: return run(integral_constant<std::size_t, 5>{});
    case 6: return run(integral_constant<std::size_t, 6>{});
    case 7: return run(integral_constant<std::size_t, 7>{});
    default: return run(integral_constant<std::size_t, kMaxBiquadSections>{});
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

// --- Elementwise kernels ---------------------------------------------------
//
// One sample or one search position per lane, each with exactly the
// IEEE-754 operations of the scalar expression it replaces (see the
// op contract in common/simd.hpp). The last n % 4 elements run the same
// block on a zero-padded copy, so the ScalarBackend instantiation is the
// scalar path: there is no second loop body.

/// Calls `block(p, i)` for x[i..i+4) over x[0, n), the tail on a
/// zero-padded copy written back element by element.
template <class Block>
inline void for_each_quad(double* x, std::size_t n, Block&& block) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) block(x + i, i);
  if (i < n) {
    double pad[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy_n(x + i, n - i, pad);
    block(pad, i);
    std::copy_n(pad, n - i, x + i);
  }
}

/// The ADC round trip in place: each x is quantized as x + offset with
/// Adc::quantize's arithmetic (std::clamp to [lo, hi], scale to
/// [0, top], round half up from the truncation, NaN to code 0) and
/// replaced by its code's voltage, Adc::code_to_volts's arithmetic, minus
/// offset. `top` is the converter's max code.
template <class B>
void adc_round_trip_kernel(double* x, std::size_t n, double offset,
                           double lo, double hi, double top) {
  using V = typename B::f64x4;
  const V off = B::broadcast4(offset);
  const V vlo = B::broadcast4(lo);
  const V vhi = B::broadcast4(hi);
  const V span = B::broadcast4(hi - lo);
  const V vtop = B::broadcast4(top);
  const V zero = B::broadcast4(0.0);
  const V half = B::broadcast4(0.5);
  const V one = B::broadcast4(1.0);
  for_each_quad(x, n, [&](double* p, std::size_t) {
    const V v = B::add4(B::load4(p), off);
    // std::clamp: v < lo ? lo : (hi < v ? hi : v); NaN passes through.
    V c = B::select4(B::lt4(v, vlo), vlo, v);
    c = B::select4(B::lt4(vhi, c), vhi, c);
    const V q = B::mul4(B::div4(B::sub4(c, vlo), span), vtop);
    const V whole = B::trunc4(q);
    V code = B::add4(
        whole, B::select4(B::ge4(B::sub4(q, whole), half), one, zero));
    code = B::min4(B::select4(B::ge4(q, zero), code, zero), vtop);
    B::store4(p, B::sub4(B::add4(vlo, B::mul4(B::div4(code, vtop), span)),
                         off));
  });
}

/// The front end's input stage in place over the noise draws in `out`:
/// out[i] = tia * (responsivity * optical[k] + out[i]), with the
/// zero-order-hold source k = min(size_t(i / fs * rate), len - 1).
/// Requires len >= 1.
template <class B>
void zoh_tia_kernel(const double* optical, std::size_t len, double rate,
                    double fs, double responsivity, double tia, double* out,
                    std::size_t n) {
  using V = typename B::f64x4;
  const V vfs = B::broadcast4(fs);
  const V vrate = B::broadcast4(rate);
  const V resp = B::broadcast4(responsivity);
  const V gain = B::broadcast4(tia);
  // double(i) + l is double(i + l) exactly below 2^53 samples.
  constexpr double kLane[4] = {0.0, 1.0, 2.0, 3.0};
  const V lane = B::load4(kLane);
  for_each_quad(out, n, [&](double* p, std::size_t i) {
    const V index = B::add4(B::broadcast4(static_cast<double>(i)), lane);
    double at[4];
    B::store4(at, B::mul4(B::div4(index, vfs), vrate));
    // The clamp also keeps a padded tail lane's source in range.
    double held[4];
    for (std::size_t l = 0; l < 4; ++l) {
      held[l] = optical[std::min(static_cast<std::size_t>(at[l]), len - 1)];
    }
    B::store4(p, B::mul4(gain, B::add4(B::mul4(resp, B::load4(held)),
                                        B::load4(p))));
  });
}

/// Elementwise sums across rows: out[i] = init + rows[0][i] + ... +
/// rows[count - 1][i], added in row order. Sixteen positions go at once
/// on four independent accumulators, so the adds' latency overlaps; each
/// position's chain is the scalar one.
template <class B>
void sum_rows_kernel(const double* const* rows, std::size_t count,
                     double init, double* out, std::size_t n) {
  using V = typename B::f64x4;
  const V start = B::broadcast4(init);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    V acc0 = start;
    V acc1 = start;
    V acc2 = start;
    V acc3 = start;
    for (std::size_t r = 0; r < count; ++r) {
      const double* const p = rows[r] + i;
      acc0 = B::add4(acc0, B::load4(p));
      acc1 = B::add4(acc1, B::load4(p + 4));
      acc2 = B::add4(acc2, B::load4(p + 8));
      acc3 = B::add4(acc3, B::load4(p + 12));
    }
    B::store4(out + i, acc0);
    B::store4(out + i + 4, acc1);
    B::store4(out + i + 8, acc2);
    B::store4(out + i + 12, acc3);
  }
  for (; i + 4 <= n; i += 4) {
    V acc = start;
    for (std::size_t r = 0; r < count; ++r) {
      acc = B::add4(acc, B::load4(rows[r] + i));
    }
    B::store4(out + i, acc);
  }
  for (; i < n; ++i) {
    double acc = init;
    for (std::size_t r = 0; r < count; ++r) acc += rows[r][i];
    out[i] = acc;
  }
}

/// Window mean and sum of squared deviations from the rolling sums:
/// mean = sum / m, var = sq - sum * mean.
template <class B>
inline void window_moments(typename B::f64x4 sum, typename B::f64x4 sq,
                           typename B::f64x4 m, typename B::f64x4& mean,
                           typename B::f64x4& var) {
  mean = B::div4(sum, m);
  var = B::sub4(sq, B::mul4(sum, mean));
}

/// The pruned preamble search's bound pass over n positions. On entry
/// means/vars hold the rolling window sums and bounds the run-length approximate dots; on exit means/vars hold
/// the window moments and bounds[i] the score upper bound
/// hi = (approx + delta) / den, with delta = c0 + c1 * |mean| and
/// den = sqrt(var * pat_energy), or 0 when var <= 1e-30 (NaN included).
/// Returns the largest lower bound (approx - delta) / den, likewise 0 for
/// such windows, or -inf when n == 0; NaN bounds never win.
template <class B>
double search_bounds_kernel(double* means, double* vars, double* bounds,
                            std::size_t n, std::size_t m, double c0,
                            double c1, double pat_energy) {
  using V = typename B::f64x4;
  const V vm = B::broadcast4(static_cast<double>(m));
  const V vc0 = B::broadcast4(c0);
  const V vc1 = B::broadcast4(c1);
  const V energy = B::broadcast4(pat_energy);
  const V floor = B::broadcast4(1e-30);
  const V zero = B::broadcast4(0.0);
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  // One block per four positions; returns their lower bounds.
  const auto block = [&](double* mp, double* vp, double* bp) {
    V mean;
    V var;
    window_moments<B>(B::load4(mp), B::load4(vp), vm, mean, var);
    B::store4(mp, mean);
    B::store4(vp, var);
    const auto live = B::gt4(var, floor);
    const V delta = B::add4(vc0, B::mul4(vc1, B::abs4(mean)));
    const V den = B::sqrt4(B::mul4(var, energy));
    const V approx = B::load4(bp);
    B::store4(bp, B::select4(live, B::div4(B::add4(approx, delta), den),
                             zero));
    return B::select4(live, B::div4(B::sub4(approx, delta), den), zero);
  };
  V lower = B::broadcast4(kNone);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lower = B::max4(lower, block(means + i, vars + i, bounds + i));
  }
  double lows[4];
  B::store4(lows, lower);
  double lower_max = kNone;
  for (const double lo : lows) lower_max = std::max(lower_max, lo);
  if (i < n) {
    const std::size_t r = n - i;
    double mp[4] = {0.0, 0.0, 0.0, 0.0};
    double vp[4] = {0.0, 0.0, 0.0, 0.0};
    double bp[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy_n(means + i, r, mp);
    std::copy_n(vars + i, r, vp);
    std::copy_n(bounds + i, r, bp);
    B::store4(lows, block(mp, vp, bp));
    std::copy_n(mp, r, means + i);
    std::copy_n(vp, r, vars + i);
    std::copy_n(bp, r, bounds + i);
    // The padding lanes' zero bounds must not count.
    for (std::size_t l = 0; l < r; ++l) {
      lower_max = std::max(lower_max, lows[l]);
    }
  }
  return lower_max;
}

// --- Vector-backend entry points (defined in dsp_simd.cpp) ---------------

void filter_quad_vec(double* const x[4], std::size_t n, const double* coeffs,
                     double* states, std::size_t sections,
                     std::size_t gain_at, const double* gains);
void tap_sums_vec(const double* prefix, const std::size_t* at,
                  const double* w, std::size_t taps, double* out,
                  std::size_t n);
void adc_round_trip_vec(double* x, std::size_t n, double offset, double lo,
                        double hi, double top);
void zoh_tia_vec(const double* optical, std::size_t len, double rate,
                 double fs, double responsivity, double tia, double* out,
                 std::size_t n);
double search_bounds_vec(double* means, double* vars, double* bounds,
                         std::size_t n, std::size_t m, double c0, double c1,
                         double pat_energy);
void sum_rows_vec(const double* const* rows, std::size_t count, double init,
                  double* out, std::size_t n);

}  // namespace densevlc::dsp::detail
