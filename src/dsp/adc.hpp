// Analog-to-digital converter model (paper: ADS7883, 1 Msps, SPI to PRU).
//
// The ADC samples the filtered front-end voltage at a fixed rate and
// quantizes into an unsigned code of `bits` resolution across
// [min_volts, max_volts]. Out-of-range inputs clip, as the real part does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/waveform.hpp"

namespace densevlc::dsp {

/// Converter configuration.
struct AdcConfig {
  double sample_rate_hz = 1e6;  ///< 1 Msps per the paper
  unsigned bits = 12;           ///< ADS7883 is a 12-bit converter
  double min_volts = 0.0;       ///< bottom of input range
  double max_volts = 3.3;       ///< top of input range

  bool operator==(const AdcConfig&) const = default;
};

/// Samples and quantizes analog waveforms.
class Adc {
 public:
  Adc() = default;
  explicit Adc(const AdcConfig& cfg) : cfg_{cfg} {}

  const AdcConfig& config() const { return cfg_; }

  /// Quantizes one instantaneous voltage to its output code: the
  /// nearest code, halves away from zero (what std::lround gives); NaN
  /// maps to code 0.
  std::uint32_t quantize(double volts) const {
    const double clipped = std::clamp(volts, cfg_.min_volts, cfg_.max_volts);
    const double normalized =
        (clipped - cfg_.min_volts) / (cfg_.max_volts - cfg_.min_volts);
    const double x = normalized * static_cast<double>(max_code());
    if (!(x >= 0.0)) return 0;  // NaN
    // x lies in [0, max_code], where x - trunc(x) is exact, so this is
    // lround's rounding without the call.
    auto code = static_cast<std::uint32_t>(x);
    if (x - static_cast<double>(code) >= 0.5) ++code;
    return code;
  }

  /// Converts a code back to the center voltage of its quantization bin.
  double code_to_volts(std::uint32_t code) const {
    const double normalized = static_cast<double>(std::min(code, max_code())) /
                              static_cast<double>(max_code());
    return cfg_.min_volts + normalized * (cfg_.max_volts - cfg_.min_volts);
  }

  /// The converter round trip over a block, in place: each v becomes
  /// code_to_volts(quantize(v + offset)) - offset, bit for bit, through
  /// the elementwise kernel (vector or scalar backend, see
  /// common/simd.hpp). The front end passes its mid-rail as `offset`.
  void round_trip_into(std::span<double> samples, double offset) const;

  /// Resamples `analog` (at its own rate) to the ADC rate by zero-order
  /// hold (sample-and-hold behaviour) and quantizes each sample.
  std::vector<std::uint32_t> digitize(const Waveform& analog) const;

  /// Like digitize() but returns the reconstructed voltages — convenient
  /// for downstream floating-point DSP while still modeling quantization.
  Waveform digitize_to_voltage(const Waveform& analog) const;

  /// Quantization step size [V].
  double lsb() const;

 private:
  std::uint32_t max_code() const {
    return static_cast<std::uint32_t>((std::uint64_t{1} << cfg_.bits) - 1);
  }

  AdcConfig cfg_{};
};

}  // namespace densevlc::dsp
