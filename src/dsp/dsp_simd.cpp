// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
//
// Vector-backend instantiations of the DSP kernels. This is the only DSP
// TU compiled with the vector ISA flags (-mavx2 on x86; see
// src/dsp/CMakeLists.txt), so `simd::VectorBackend` resolves to the wide
// backend here and to the scalar one everywhere else. Callers must gate
// on `simd::use_vector_kernels()` before entering these.
#include "dsp/dsp_kernels.hpp"

namespace densevlc::dsp::detail {

void biquad_x4_vec(const double* coeffs, double* states,
                   std::size_t sections, double* x, std::size_t samples) {
  biquad_x4_kernel<simd::VectorBackend>(coeffs, states, sections, x,
                                        samples);
}

void correlate_scores_vec(const double* signal, const double* pat,
                          std::size_t m, const double* means,
                          const double* vars, double pat_energy,
                          double* scores, std::size_t n) {
  correlate_scores_kernel<simd::VectorBackend>(signal, pat, m, means, vars,
                                               pat_energy, scores, n);
}

void tap_sums_vec(const double* prefix, const std::size_t* at,
                  const double* w, std::size_t taps, double* out,
                  std::size_t n) {
  tap_sums_kernel<simd::VectorBackend>(prefix, at, w, taps, out, n);
}

}  // namespace densevlc::dsp::detail
