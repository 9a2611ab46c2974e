// Receiver mobility models (substitute for the OpenBuilds ACRO 2-axis
// positioners that move the paper's RXs around the 3 m x 3 m floor).
#pragma once

#include <memory>
#include <vector>

#include "geom/vec3.hpp"

namespace densevlc::geom {

/// Position of a receiver as a function of simulated time.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Position at time `t_s` [s from scenario start].
  virtual Vec3 position(double t_s) const = 0;
};

/// A receiver that never moves.
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Vec3 pos) : pos_{pos} {}
  Vec3 position(double /*t_s*/) const override { return pos_; }

 private:
  Vec3 pos_;
};

/// Piecewise-linear motion through timed waypoints. Before the first
/// waypoint the position holds at the first; after the last it holds at
/// the last. Waypoint times must be strictly increasing.
class WaypointMobility final : public MobilityModel {
 public:
  struct Waypoint {
    double time_s = 0.0;
    Vec3 pos{};
  };

  /// Throws std::invalid_argument on empty or non-monotonic waypoints.
  explicit WaypointMobility(std::vector<Waypoint> waypoints);

  Vec3 position(double t_s) const override;

 private:
  std::vector<Waypoint> waypoints_;
};

}  // namespace densevlc::geom
