// Minimal 3-D vector algebra for the optical geometry.
//
// Coordinate convention (matches the paper's figures): x/y span the floor
// plane in meters with the origin at a room corner; z points up, so the
// ceiling LEDs sit at z = room height and face -z, receivers face +z.
#pragma once

#include <cmath>

namespace densevlc::geom {

/// A 3-D vector / point with double components. Plain aggregate — no
/// invariant beyond finite components, per struct-for-data guidance.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3 operator+(const Vec3& o) const {
    return {x + o.x, y + o.y, z + o.z};
  }
  constexpr Vec3 operator-(const Vec3& o) const {
    return {x - o.x, y - o.y, z - o.z};
  }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  constexpr bool operator==(const Vec3&) const = default;

  /// Dot product.
  constexpr double dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }

  /// Euclidean norm.
  double norm() const { return std::sqrt(dot(*this)); }

  /// Squared norm (cheaper when only comparisons are needed).
  constexpr double norm2() const { return dot(*this); }

  /// Unit vector in this direction. Undefined for the zero vector; callers
  /// guard with norm() > 0.
  Vec3 normalized() const {
    const double n = norm();
    return {x / n, y / n, z / n};
  }

  /// Cross product.
  constexpr Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }


/// An oriented optical element: a position plus the unit normal of its
/// emitting (LED) or collecting (photodiode) surface.
struct Pose {
  Vec3 position{};
  Vec3 normal{0.0, 0.0, -1.0};  ///< default: ceiling-mounted, facing down
};

/// Pose helper for a ceiling luminaire at (x, y, height) facing the floor.
constexpr Pose ceiling_pose(double x, double y, double height) {
  return Pose{{x, y, height}, {0.0, 0.0, -1.0}};
}

/// Pose helper for an upward-facing receiver at (x, y, height).
constexpr Pose floor_pose(double x, double y, double height) {
  return Pose{{x, y, height}, {0.0, 0.0, 1.0}};
}

/// Pose for a receiver tilted away from vertical: `tilt_rad` is the polar
/// angle from +z (0 = facing straight up), `azimuth_rad` the direction of
/// the lean in the XY plane (0 = toward +x). Used by the RX-orientation
/// study (paper Sec. 9 notes the algorithms work for any orientation).
inline Pose tilted_pose(double x, double y, double height, double tilt_rad,
                        double azimuth_rad) {
  return Pose{{x, y, height},
              {std::sin(tilt_rad) * std::cos(azimuth_rad),
               std::sin(tilt_rad) * std::sin(azimuth_rad),
               std::cos(tilt_rad)}};
}

}  // namespace densevlc::geom
