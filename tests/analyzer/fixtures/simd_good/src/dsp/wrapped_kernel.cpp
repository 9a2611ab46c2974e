// Fixture: kernels reach vectors only through the wrapper's named ops;
// ordinary identifiers starting with 'v' or '_' never match the rule.
#include "common/simd.hpp"

namespace densevlc::dsp {

template <class B>
typename B::f64x4 load_head(const double* p) {
  return B::load4(p);
}

double variance_quotient(double vq_u, double _mean) {
  return vq_u - _mean;  // names near-missing the intrinsic patterns
}

// Unit-literal suffixes spell `_mm` / `_mm2` with no second underscore —
// millimeters, not x86 intrinsics.
constexpr double operator""_mm(long double v) {
  return static_cast<double>(v) * 1e-3;
}
constexpr double operator""_mm2(long double v) {
  return static_cast<double>(v) * 1e-6;
}

double lens_area() { return 2.0_mm * 2.0_mm + 0.5_mm2; }

}  // namespace densevlc::dsp
