// Portable fixed-width SIMD wrapper for the DSP float kernels.
//
// Three backends with one contract:
//
//   ScalarBackend   plain C++ loops, always available, bit-identical to
//                   the vector backends by construction (the kernels
//                   vectorize across independent streams with per-lane
//                   operation order unchanged).
//   Avx2Backend     x86-64, compiled only in TUs built with -mavx2 (the
//                   dedicated dsp_simd.cpp TU; see src/dsp/CMakeLists.txt).
//   NeonBackend     aarch64, compiled wherever __ARM_NEON is on (default
//                   for aarch64 targets).
//
// This header is the ONLY file in the repo allowed to touch raw ISA
// intrinsics — the dvlc_analyze `simd-raw-intrinsic` rule flags
// `_mm*`/`vld1q_*` anywhere else. Kernels are written once as templates
// over a backend (src/dsp/dsp_kernels.hpp) and instantiated for
// ScalarBackend in the regular TUs and for `simd::VectorBackend` in
// dsp_simd.cpp.
//
// Runtime selection (common/simd.cpp): `use_vector_kernels()` is true
// when the CPU supports the compiled vector ISA and the escape hatch is
// off. `DVLC_FORCE_SCALAR=1` in the environment — or
// `set_force_scalar(true)` from tests — forces every dispatch site onto
// the scalar kernels; outputs are bit-identical either way (the
// differential suites in tests/phy and tests/dsp pin this).
//
// Vector type groups:
//   f64x4  fixed group of 4 doubles (lane-parallel IIR / correlation)
//   m64x4  per-lane compare result over an f64x4, consumed by select4
//
// The elementwise double ops (div4, sqrt4, trunc4, abs4, min4, max4, the
// compares and select4) are the IEEE-754 operations of the scalar code,
// lane by lane: div and sqrt are correctly rounded, trunc and abs are
// exact, and the compares are ordered (false when either side is NaN),
// like C++'s `<`, `>=` and `>`. min4/max4 are std::min/std::max, built
// from an explicit compare and select on every backend, because SSE's
// MINPD and NEON's FMIN disagree on NaN operands. transpose4 only moves
// lanes, so it is exact on every backend.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define DVLC_SIMD_HAVE_AVX2 1
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define DVLC_SIMD_HAVE_NEON 1
#endif

namespace densevlc::simd {

// --- Runtime backend selection (state lives in common/simd.cpp) ----------

/// True when vector dispatch is suppressed: DVLC_FORCE_SCALAR=1 in the
/// environment, or an explicit set_force_scalar(true).
bool force_scalar() noexcept;

/// Test/bench hook overriding the environment switch (both directions).
// DVLC_LINT_WAIVE(dead-public-api): test hook; the SIMD-leg tests flip it
void set_force_scalar(bool on) noexcept;

/// True when the running CPU can execute the vector ISA the *_simd TUs
/// were compiled for (AVX2 on x86-64, always true on aarch64/NEON).
bool cpu_has_vector_support() noexcept;

/// The dispatch predicate every kernel call site uses.
bool use_vector_kernels() noexcept;

// --- Scalar backend ------------------------------------------------------

struct ScalarBackend {
  struct f64x4 {
    std::array<double, 4> d;
  };
  struct m64x4 {
    std::array<bool, 4> m;
  };

  // The double ops spell out their four lanes so the compiler keeps an
  // f64x4 in registers; a loop per op leaves it in memory, half packed by
  // the vectorizer, and pays a store-forwarding stall per op.
  static f64x4 load4(const double* p) {
    return f64x4{{p[0], p[1], p[2], p[3]}};
  }
  static void store4(double* p, f64x4 v) {
    for (std::size_t i = 0; i < 4; ++i) p[i] = v.d[i];
  }
  static f64x4 broadcast4(double x) { return f64x4{{x, x, x, x}}; }
  template <class F>
  static f64x4 lanes(f64x4 a, F f) {
    return f64x4{{f(a.d[0]), f(a.d[1]), f(a.d[2]), f(a.d[3])}};
  }
  template <class F>
  static f64x4 lanes(f64x4 a, f64x4 b, F f) {
    return f64x4{{f(a.d[0], b.d[0]), f(a.d[1], b.d[1]), f(a.d[2], b.d[2]),
                  f(a.d[3], b.d[3])}};
  }
  template <class F>
  static m64x4 compare(f64x4 a, f64x4 b, F f) {
    return m64x4{{f(a.d[0], b.d[0]), f(a.d[1], b.d[1]), f(a.d[2], b.d[2]),
                  f(a.d[3], b.d[3])}};
  }
  static f64x4 add4(f64x4 a, f64x4 b) {
    return lanes(a, b, [](double x, double y) { return x + y; });
  }
  static f64x4 sub4(f64x4 a, f64x4 b) {
    return lanes(a, b, [](double x, double y) { return x - y; });
  }
  static f64x4 mul4(f64x4 a, f64x4 b) {
    return lanes(a, b, [](double x, double y) { return x * y; });
  }
  static f64x4 div4(f64x4 a, f64x4 b) {
    return lanes(a, b, [](double x, double y) { return x / y; });
  }
  static f64x4 sqrt4(f64x4 a) {
    return lanes(a, [](double x) { return std::sqrt(x); });
  }
  static f64x4 abs4(f64x4 a) {
    return lanes(a, [](double x) { return std::fabs(x); });
  }
  /// Round toward zero, as a double: std::trunc without the libm call
  /// baseline x86-64 makes for it. Below 2^52 in magnitude the int64
  /// round trip truncates exactly and copysign restores a zero's sign;
  /// larger values, infinities and NaN are already their own trunc.
  static f64x4 trunc4(f64x4 a) {
    return lanes(a, [](double x) {
      return std::fabs(x) < 0x1p52
                 ? std::copysign(
                       static_cast<double>(static_cast<std::int64_t>(x)), x)
                 : x;
    });
  }
  static m64x4 lt4(f64x4 a, f64x4 b) {
    return compare(a, b, [](double x, double y) { return x < y; });
  }
  static m64x4 ge4(f64x4 a, f64x4 b) {
    return compare(a, b, [](double x, double y) { return x >= y; });
  }
  static m64x4 gt4(f64x4 a, f64x4 b) {
    return compare(a, b, [](double x, double y) { return x > y; });
  }
  /// Lane i is a[i] where m[i] holds, else b[i].
  static f64x4 select4(m64x4 m, f64x4 a, f64x4 b) {
    return f64x4{{m.m[0] ? a.d[0] : b.d[0], m.m[1] ? a.d[1] : b.d[1],
                  m.m[2] ? a.d[2] : b.d[2], m.m[3] ? a.d[3] : b.d[3]}};
  }
  /// std::min(a, b): b < a ? b : a.
  static f64x4 min4(f64x4 a, f64x4 b) { return select4(lt4(b, a), b, a); }
  /// std::max(a, b): a < b ? b : a.
  static f64x4 max4(f64x4 a, f64x4 b) { return select4(lt4(a, b), b, a); }
  /// In-place 4x4 transpose: afterwards r_j[i] is the old r_i[j].
  static void transpose4(f64x4& r0, f64x4& r1, f64x4& r2, f64x4& r3) {
    const f64x4 a = r0, b = r1, c = r2, d = r3;
    r0 = f64x4{{a.d[0], b.d[0], c.d[0], d.d[0]}};
    r1 = f64x4{{a.d[1], b.d[1], c.d[1], d.d[1]}};
    r2 = f64x4{{a.d[2], b.d[2], c.d[2], d.d[2]}};
    r3 = f64x4{{a.d[3], b.d[3], c.d[3], d.d[3]}};
  }
};

// --- AVX2 backend (only in TUs compiled with -mavx2) ---------------------

#if defined(DVLC_SIMD_HAVE_AVX2)

struct Avx2Backend {
  using f64x4 = __m256d;
  using m64x4 = __m256d;  // all-ones / all-zeros lanes

  static f64x4 load4(const double* p) { return _mm256_loadu_pd(p); }
  static void store4(double* p, f64x4 v) { _mm256_storeu_pd(p, v); }
  static f64x4 broadcast4(double x) { return _mm256_set1_pd(x); }
  // Plain mul + add (no FMA): matches the scalar backend's rounding
  // exactly, which is what keeps the float kernels bit-identical.
  static f64x4 add4(f64x4 a, f64x4 b) { return _mm256_add_pd(a, b); }
  static f64x4 sub4(f64x4 a, f64x4 b) { return _mm256_sub_pd(a, b); }
  static f64x4 mul4(f64x4 a, f64x4 b) { return _mm256_mul_pd(a, b); }
  static f64x4 div4(f64x4 a, f64x4 b) { return _mm256_div_pd(a, b); }
  static f64x4 sqrt4(f64x4 a) { return _mm256_sqrt_pd(a); }
  static f64x4 trunc4(f64x4 a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static f64x4 abs4(f64x4 a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  // Ordered, quiet predicates: false when either lane is NaN.
  static m64x4 lt4(f64x4 a, f64x4 b) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  }
  static m64x4 ge4(f64x4 a, f64x4 b) {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  static m64x4 gt4(f64x4 a, f64x4 b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static f64x4 select4(m64x4 m, f64x4 a, f64x4 b) {
    return _mm256_blendv_pd(b, a, m);
  }
  static f64x4 min4(f64x4 a, f64x4 b) { return select4(lt4(b, a), b, a); }
  static f64x4 max4(f64x4 a, f64x4 b) { return select4(lt4(a, b), b, a); }
  static void transpose4(f64x4& r0, f64x4& r1, f64x4& r2, f64x4& r3) {
    // Pair up within 128-bit halves, then swap the halves across.
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // a0 b0 a2 b2
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // a1 b1 a3 b3
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);  // c0 d0 c2 d2
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);  // c1 d1 c3 d3
    r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};

#endif  // DVLC_SIMD_HAVE_AVX2

// --- NEON backend (aarch64) ----------------------------------------------

#if defined(DVLC_SIMD_HAVE_NEON)

struct NeonBackend {
  struct f64x4 {
    float64x2_t lo;
    float64x2_t hi;
  };
  struct m64x4 {
    uint64x2_t lo;
    uint64x2_t hi;
  };

  static f64x4 load4(const double* p) {
    return f64x4{vld1q_f64(p), vld1q_f64(p + 2)};
  }
  static void store4(double* p, f64x4 v) {
    vst1q_f64(p, v.lo);
    vst1q_f64(p + 2, v.hi);
  }
  static f64x4 broadcast4(double x) {
    return f64x4{vdupq_n_f64(x), vdupq_n_f64(x)};
  }
  static f64x4 add4(f64x4 a, f64x4 b) {
    return f64x4{vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static f64x4 sub4(f64x4 a, f64x4 b) {
    return f64x4{vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  // vmulq, not vfmaq: keeps rounding identical to the scalar backend.
  static f64x4 mul4(f64x4 a, f64x4 b) {
    return f64x4{vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  static f64x4 div4(f64x4 a, f64x4 b) {
    return f64x4{vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }
  static f64x4 sqrt4(f64x4 a) {
    return f64x4{vsqrtq_f64(a.lo), vsqrtq_f64(a.hi)};
  }
  static f64x4 trunc4(f64x4 a) {
    return f64x4{vrndq_f64(a.lo), vrndq_f64(a.hi)};
  }
  static f64x4 abs4(f64x4 a) {
    return f64x4{vabsq_f64(a.lo), vabsq_f64(a.hi)};
  }
  static m64x4 lt4(f64x4 a, f64x4 b) {
    return m64x4{vcltq_f64(a.lo, b.lo), vcltq_f64(a.hi, b.hi)};
  }
  static m64x4 ge4(f64x4 a, f64x4 b) {
    return m64x4{vcgeq_f64(a.lo, b.lo), vcgeq_f64(a.hi, b.hi)};
  }
  static m64x4 gt4(f64x4 a, f64x4 b) {
    return m64x4{vcgtq_f64(a.lo, b.lo), vcgtq_f64(a.hi, b.hi)};
  }
  static f64x4 select4(m64x4 m, f64x4 a, f64x4 b) {
    return f64x4{vbslq_f64(m.lo, a.lo, b.lo), vbslq_f64(m.hi, a.hi, b.hi)};
  }
  static f64x4 min4(f64x4 a, f64x4 b) { return select4(lt4(b, a), b, a); }
  static f64x4 max4(f64x4 a, f64x4 b) { return select4(lt4(a, b), b, a); }
  static void transpose4(f64x4& r0, f64x4& r1, f64x4& r2, f64x4& r3) {
    const f64x4 a = r0, b = r1, c = r2, d = r3;
    r0 = f64x4{vzip1q_f64(a.lo, b.lo), vzip1q_f64(c.lo, d.lo)};
    r1 = f64x4{vzip2q_f64(a.lo, b.lo), vzip2q_f64(c.lo, d.lo)};
    r2 = f64x4{vzip1q_f64(a.hi, b.hi), vzip1q_f64(c.hi, d.hi)};
    r3 = f64x4{vzip2q_f64(a.hi, b.hi), vzip2q_f64(c.hi, d.hi)};
  }
};

#endif  // DVLC_SIMD_HAVE_NEON

// --- The vector backend this TU compiles to ------------------------------

#if defined(DVLC_SIMD_HAVE_AVX2)
using VectorBackend = Avx2Backend;
#define DVLC_SIMD_HAS_VECTOR_BACKEND 1
#elif defined(DVLC_SIMD_HAVE_NEON)
using VectorBackend = NeonBackend;
#define DVLC_SIMD_HAS_VECTOR_BACKEND 1
#else
using VectorBackend = ScalarBackend;
#define DVLC_SIMD_HAS_VECTOR_BACKEND 0
#endif

}  // namespace densevlc::simd
