// M2M4 moments-based SNR estimation (paper Sec. 7.2, after Pauluzzi &
// Beaulieu 2000).
//
// DenseVLC estimates link SNR from received data symbols without a
// training sequence: the second and fourth moments of the (AC-coupled,
// therefore zero-mean antipodal) symbol stream determine signal and noise
// powers in closed form. For a real antipodal constellation (kurtosis
// ka = 1) in real AWGN (kw = 3):
//
//   M2 = S + N,  M4 = S^2 + 6 S N + 3 N^2
//   =>  S = sqrt((3 M2^2 - M4) / 2),  N = M2 - S.
#pragma once

#include <optional>
#include <span>

namespace densevlc::dsp {

/// SNR estimate decomposed into powers. The powers are in the squared
/// unit of whatever samples were fed in (A^2 for photocurrent, V^2 for
/// post-TIA voltage), so they carry no fixed unit suffix.
struct SnrEstimate {
  double signal_power = 0.0;  // DVLC_LINT_WAIVE(units): accumulator over arbitrary signal scale
  double noise_power = 0.0;   // DVLC_LINT_WAIVE(units): accumulator over arbitrary signal scale
  double snr_linear = 0.0;
  double snr_db = 0.0;
};

/// Runs the M2M4 estimator over zero-mean antipodal samples.
///
/// Returns nullopt when the moment equations have no real solution (can
/// happen at very low sample counts or if the input is not antipodal) or
/// fewer than 4 samples are supplied.
std::optional<SnrEstimate> m2m4_snr(std::span<const double> samples);

}  // namespace densevlc::dsp
