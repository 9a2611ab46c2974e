// Cross-correlation utilities for preamble and pilot detection.
//
// Both the data receiver (frame preamble search) and the synchronization
// listener (NLOS pilot search at frx oversampling) locate a known pattern
// inside a noisy sample stream via normalized cross-correlation.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.hpp"

namespace densevlc::dsp {

/// Result of a pattern search.
struct PeakDetection {
  std::size_t index = 0;   ///< sample offset of the best alignment
  double score = 0.0;      ///< normalized correlation at the peak
};

/// Finds the best normalized-correlation alignment of `pattern` within
/// `signal`, requiring the peak to reach `threshold`. The score of a
/// window is in [-1, 1]: the window is mean-removed and scaled by its
/// energy, as is the pattern; a window or pattern with no variance scores
/// 0. Returns nullopt when nothing crosses the threshold (e.g. pilot
/// absent / blocked) or the pattern is longer than the signal.
std::optional<PeakDetection> detect_pattern(std::span<const double> signal,
                                            std::span<const double> pattern,
                                            double threshold);

// --- Zero-allocation overloads (see common/arena.hpp) -------------------

/// Reusable workspace for repeated pattern searches.
///
/// The staged template — the mean-removed pattern, its energy, its
/// run-boundary taps and the magnitude sums the pruned search's bound
/// uses — is rebuilt only when a call brings a template whose bits differ
/// from `source`, the raw template it was staged from, so a search with
/// the same template as the last one skips the staging and a different
/// template can never find it stale. The rest holds one search's
/// per-position arrays: the rolling window statistics the SIMD kernels
/// consume (aligned for vector loads), the signal's running sums and the
/// per-position score upper bounds.
struct CorrelateScratch {
  std::vector<double> source;       ///< raw template the staging is of
  std::vector<double> pattern;      ///< mean-removed template
  double pat_sumsq = 0.0;           ///< sum of pattern[j]^2 (its energy)
  double pat_abs = 0.0;             ///< sum of |pattern[j]|
  double pat_sum = 0.0;             ///< sum of pattern[j]
  double pat_max = 0.0;             ///< max of |pattern[j]|
  double w_abs = 0.0;               ///< sum of |tap_w[t]|
  std::vector<std::size_t> tap_at;  ///< run-boundary offsets in the pattern
  std::vector<double> tap_w;        ///< pattern jump at each boundary
  AlignedVector<double> means;
  AlignedVector<double> vars;
  AlignedVector<double> prefix;     ///< prefix[k] = sum of signal[0..k)
  AlignedVector<double> bounds;     ///< approximate dots, then score bounds
  std::size_t rescored = 0;  ///< positions the last search scored exactly
};

/// detect_pattern running off a reused workspace. Bit-identical to the
/// full scan (score every position, keep the first maximum that reaches
/// `threshold`) without scoring every position: a run-length pass bounds
/// each position's score from the signal's running sums, and only the
/// positions whose upper bound can still win are scored with the exact
/// per-position arithmetic. See docs/architecture.md "Bit-identity
/// policy" for the bound.
std::optional<PeakDetection> detect_pattern_into(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold, CorrelateScratch& scratch);

}  // namespace densevlc::dsp
