// Fixture: the portable wrapper itself may spell raw intrinsics.
#pragma once

namespace densevlc::simd {

struct Avx2Backend {
  using f64x4 = __m256d;
  static f64x4 load4(const double* p) { return _mm256_loadu_pd(p); }
};

struct NeonBackend {
  struct f64x4 {
    float64x2_t lo;
    float64x2_t hi;
  };
  static f64x4 load4(const double* p) {
    return f64x4{vld1q_f64(p), vld1q_f64(p + 2)};
  }
};

}  // namespace densevlc::simd
