#include "dsp/adc.hpp"

#include <algorithm>

#include "common/simd.hpp"
#include "dsp/dsp_kernels.hpp"

namespace densevlc::dsp {

void Adc::round_trip_into(std::span<double> samples, double offset) const {
  const auto top = static_cast<double>(max_code());
  if (simd::use_vector_kernels()) {
    detail::adc_round_trip_vec(samples.data(), samples.size(), offset,
                               cfg_.min_volts, cfg_.max_volts, top);
  } else {
    detail::adc_round_trip_kernel<simd::ScalarBackend>(
        samples.data(), samples.size(), offset, cfg_.min_volts,
        cfg_.max_volts, top);
  }
}

double Adc::lsb() const {
  const double levels = static_cast<double>(max_code());
  return (cfg_.max_volts - cfg_.min_volts) / levels;
}

std::vector<std::uint32_t> Adc::digitize(const Waveform& analog) const {
  std::vector<std::uint32_t> codes;
  if (analog.samples.empty() || analog.sample_rate_hz <= 0.0) return codes;
  const double duration = analog.duration();
  const auto n_out = static_cast<std::size_t>(duration * cfg_.sample_rate_hz);
  codes.reserve(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    const double t = static_cast<double>(i) / cfg_.sample_rate_hz;
    // Zero-order hold: take the most recent analog sample.
    auto idx = static_cast<std::size_t>(t * analog.sample_rate_hz);
    idx = std::min(idx, analog.samples.size() - 1);
    codes.push_back(quantize(analog.samples[idx]));
  }
  return codes;
}

Waveform Adc::digitize_to_voltage(const Waveform& analog) const {
  Waveform out;
  out.sample_rate_hz = cfg_.sample_rate_hz;
  const auto codes = digitize(analog);
  out.samples.reserve(codes.size());
  for (auto c : codes) out.samples.push_back(code_to_volts(c));
  return out;
}

}  // namespace densevlc::dsp
