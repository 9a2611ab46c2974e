#include "dsp/fft.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace densevlc::dsp {
namespace {

void transform(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument{"fft: size must be a power of two"};
  }

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    const Complex wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      Complex w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& c : data) c *= scale;
  }
}

}  // namespace

void fft(std::vector<Complex>& data) { transform(data, false); }

void ifft(std::vector<Complex>& data) { transform(data, true); }

}  // namespace densevlc::dsp
