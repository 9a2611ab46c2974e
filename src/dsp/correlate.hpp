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

/// Raw sliding-dot-product correlation of `pattern` against `signal`.
/// Output length is signal.size() - pattern.size() + 1; empty if the
/// pattern is longer than the signal.
std::vector<double> correlate(std::span<const double> signal,
                              std::span<const double> pattern);

/// Normalized cross-correlation in [-1, 1]: each window of the signal is
/// mean-removed and scaled by its energy, as is the pattern. Windows with
/// no variance correlate as 0.
std::vector<double> normalized_correlate(std::span<const double> signal,
                                         std::span<const double> pattern);

/// Result of a pattern search.
struct PeakDetection {
  std::size_t index = 0;   ///< sample offset of the best alignment
  double score = 0.0;      ///< normalized correlation at the peak
};

/// Finds the best normalized-correlation alignment of `pattern` within
/// `signal`, requiring the peak to reach `threshold`. Returns nullopt when
/// nothing crosses the threshold (e.g. pilot absent / blocked).
std::optional<PeakDetection> detect_pattern(std::span<const double> signal,
                                            std::span<const double> pattern,
                                            double threshold);

// --- Zero-allocation overloads (see common/arena.hpp) -------------------

/// Reusable workspace for repeated pattern searches: mean-removed pattern
/// staging, the score vector, the per-position rolling window statistics
/// the SIMD score kernel consumes (aligned for vector loads), and the
/// pruned search's run-boundary taps, signal running sums and
/// per-position score upper bounds.
struct CorrelateScratch {
  std::vector<double> pattern;
  std::vector<double> scores;
  AlignedVector<double> means;
  AlignedVector<double> vars;
  std::vector<std::size_t> tap_at;  ///< run-boundary offsets in the pattern
  std::vector<double> tap_w;        ///< pattern jump at each boundary
  AlignedVector<double> prefix;     ///< prefix[k] = sum of signal[0..k)
  AlignedVector<double> bounds;     ///< approximate dots, then score bounds
  std::size_t rescored = 0;  ///< positions the last search scored exactly
};

/// normalized_correlate into `scratch.scores`. Bit-identical to the
/// value-returning function, which now wraps this.
void normalized_correlate_into(std::span<const double> signal,
                               std::span<const double> pattern,
                               CorrelateScratch& scratch);

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
