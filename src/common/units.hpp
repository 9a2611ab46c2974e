// Physical constants and unit helpers used across DenseVLC.
//
// Convention: SI base units everywhere unless a name says otherwise —
// meters, seconds, amperes, watts, hertz. Illuminance is in lux,
// luminous flux in lumen. Currents that the paper quotes in mA are
// stored in amperes; helper literals below make call sites readable.
#pragma once

#include "common/quantity.hpp"

namespace densevlc {

/// Mathematical constant pi (double precision).
inline constexpr double kPi = 3.14159265358979323846;

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;

/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;

/// Thermal voltage kT/q at T = 300 K [V]. Used by the LED Shockley model.
// DVLC_LINT_WAIVE(units): physics constant, unit documented above
inline constexpr double kThermalVoltage300K = 0.025852;

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 299792458.0;

/// Luminous efficacy of the photopic peak (555 nm) [lm/W]. Used to convert
/// radiant flux of a white LED into luminous flux with a spectral factor.
// DVLC_LINT_WAIVE(units): physics constant, unit documented above
inline constexpr double kLuminousEfficacyPeak = 683.0;

/// Typical luminous efficacy of radiation for a cool-white phosphor LED
/// [lm/W of optical power]. CREE XT-E class emitters land near this value.
inline constexpr LumensPerWatt kWhiteLedEfficacy{300.0};

namespace units {

/// Converts degrees to radians.
constexpr double deg_to_rad(double deg) { return deg * kPi / 180.0; }

/// Converts milliamperes to amperes.
constexpr double mA(double milliamps) { return milliamps * 1e-3; }

/// Converts watts to milliwatts (for display).
constexpr double to_mW(double watts) { return watts * 1e3; }

/// Converts megahertz to hertz.
constexpr double MHz(double megahertz) { return megahertz * 1e6; }

/// Converts microseconds to seconds.
constexpr double us(double microseconds) { return microseconds * 1e-6; }

/// Converts seconds to microseconds (for display).
constexpr double to_us(double seconds) { return seconds * 1e6; }

// Typed overloads: the display-side converters accept the Quantity alias
// directly so call sites never unwrap just to format a number.

/// Converts a typed power to milliwatts (for display).
constexpr double to_mW(Watts watts) { return watts.value() * 1e3; }

/// Converts a typed duration to microseconds (for display).
constexpr double to_us(Seconds seconds) { return seconds.value() * 1e6; }

}  // namespace units
}  // namespace densevlc
