// Synchronization over non-line-of-sight VLC (paper Sec. 6.2, Fig. 14).
//
// For every beamspot the controller appoints a leading TX. The leader
// radiates a pilot chip pattern plus its own Manchester-coded ID; the
// light bounces off the floor and reaches the photodiodes of the other
// ceiling TXs, whose receive chains oversample at frx >> ftx. Each
// follower correlates against the known pilot, verifies the leader ID,
// and starts its own transmission a fixed guard period after the detected
// pilot end. The residual start error is set by the frx sampling grid
// (about half a sample period) plus noise-induced peak wander — an order
// of magnitude tighter than NTP/PTP, with no wiring and no absolute time.
//
// This module simulates that chain end to end: LED current waveform ->
// floor-bounce optical channel -> analog front-end -> ADC -> correlation
// detection -> follower start-time error.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "geom/vec3.hpp"
#include "optics/lambertian.hpp"
#include "optics/led_model.hpp"
#include "optics/nlos.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"

namespace densevlc::sync {

/// Static configuration of one leader-follower NLOS sync link.
struct NlosSyncConfig {
  geom::Pose leader_pose = geom::ceiling_pose(1.25, 1.25, 2.8);
  geom::Pose follower_pose = geom::ceiling_pose(1.75, 1.25, 2.8);
  optics::LambertianEmitter emitter{};
  optics::Photodiode pd{};        ///< follower's ceiling-facing-down PD
  optics::FloorSurface floor{};
  optics::LedModel led{};         ///< leader's LED model
  double pilot_chip_rate_hz = 100e3;  ///< ftx
  std::size_t tx_samples_per_chip = 40;  ///< leader DAC oversampling
  double swing_current_a = 0.9;   ///< pilot swing (full, for max range)
  phy::FrontEndConfig frontend{}; ///< follower receive chain (frx = ADC)
  double detect_threshold = 0.55; ///< normalized correlation floor
  std::uint8_t leader_id = 2;     ///< ID byte appended to the pilot
  /// Probability a pilot never reaches the follower at all (leader
  /// driver glitch, transient occlusion of the bounce path): the fault
  /// model's sync-pilot-loss knob. 0 keeps the draw stream untouched.
  double pilot_loss_probability = 0.0;
  std::vector<optics::FloorOccluder> occluders{};  ///< people/objects on
                                                   ///< the bounce path
};

/// One simulated detection attempt.
struct NlosDetection {
  bool detected = false;
  bool id_matches = false;
  double start_error_s = 0.0;  ///< follower start error vs. true pilot time
  double correlation = 0.0;
};

/// Simulates pilot emission, floor bounce, detection, and the follower's
/// quantized transmission start.
class NlosSynchronizer {
 public:
  explicit NlosSynchronizer(const NlosSyncConfig& cfg);

  const NlosSyncConfig& config() const { return cfg_; }

  /// The one-bounce channel gain of the configured geometry.
  double channel_gain() const { return gain_; }

  /// Runs one sync attempt. `rng` drives the front-end noise and the
  /// random sub-sample alignment of the pilot against the follower's
  /// sampling grid. The constant front-end group delay is calibrated out
  /// (the real system absorbs it into the guard period).
  NlosDetection simulate_once(Rng& rng);

  /// Measures the sync error distribution: runs `trials` attempts and
  /// returns the absolute start errors of successful detections [s].
  std::vector<double> measure_errors(std::size_t trials, Rng& rng);

 private:
  /// Builds the leader's pilot current waveform with `lead_in_chips` of
  /// bias ahead of it (sub-chip alignment comes from `frac` in [0,1)).
  dsp::Waveform pilot_waveform(double lead_in_chips, double frac) const;

  NlosSyncConfig cfg_;
  double gain_ = 0.0;
  double group_delay_s_ = 0.0;  ///< calibrated constant chain delay
};

}  // namespace densevlc::sync
