// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
//
// Vector-backend instantiations of the DSP kernels. This is the only DSP
// TU compiled with the vector ISA flags (-mavx2 on x86; see
// src/dsp/CMakeLists.txt), so `simd::VectorBackend` resolves to the wide
// backend here and to the scalar one everywhere else. Callers must gate
// on `simd::use_vector_kernels()` before entering these.
#include "dsp/dsp_kernels.hpp"

namespace densevlc::dsp::detail {

void filter_quad_vec(double* const x[4], std::size_t n, const double* coeffs,
                     double* states, std::size_t sections,
                     std::size_t gain_at, const double* gains) {
  filter_quad_kernel<simd::VectorBackend>(x, n, coeffs, states, sections,
                                          gain_at, gains);
}

void tap_sums_vec(const double* prefix, const std::size_t* at,
                  const double* w, std::size_t taps, double* out,
                  std::size_t n) {
  tap_sums_kernel<simd::VectorBackend>(prefix, at, w, taps, out, n);
}

void adc_round_trip_vec(double* x, std::size_t n, double offset, double lo,
                        double hi, double top) {
  adc_round_trip_kernel<simd::VectorBackend>(x, n, offset, lo, hi, top);
}

void zoh_tia_vec(const double* optical, std::size_t len, double rate,
                 double fs, double responsivity, double tia, double* out,
                 std::size_t n) {
  zoh_tia_kernel<simd::VectorBackend>(optical, len, rate, fs, responsivity,
                                      tia, out, n);
}

double search_bounds_vec(double* means, double* vars, double* bounds,
                         std::size_t n, std::size_t m, double c0, double c1,
                         double pat_energy) {
  return search_bounds_kernel<simd::VectorBackend>(means, vars, bounds, n, m,
                                                   c0, c1, pat_energy);
}

void sum_rows_vec(const double* const* rows, std::size_t count, double init,
                  double* out, std::size_t n) {
  sum_rows_kernel<simd::VectorBackend>(rows, count, init, out, n);
}

}  // namespace densevlc::dsp::detail
