// Radix-2 FFT, the substrate for the DCO-OFDM extension PHY.
//
// Iterative in-place Cooley-Tukey with bit-reversal permutation. Sizes
// must be powers of two. The inverse transform applies 1/N scaling so
// ifft(fft(x)) == x.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace densevlc::dsp {

using Complex = std::complex<double>;

/// True if n is a nonzero power of two.
constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// In-place forward FFT. Throws std::invalid_argument unless the size is
/// a power of two.
void fft(std::vector<Complex>& data);

/// In-place inverse FFT with 1/N normalization.
void ifft(std::vector<Complex>& data);

}  // namespace densevlc::dsp
