// Room geometry and regular transmitter grids.
//
// DenseVLC deploys N LEDs in a square grid on the ceiling (6x6 with 0.5 m
// pitch in the paper). These helpers build that layout and enumerate
// sample points for illuminance maps.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec3.hpp"

namespace densevlc::geom {

/// Axis-aligned room with the floor at z = 0.
struct Room {
  double width = 3.0;    ///< extent in x [m]
  double depth = 3.0;    ///< extent in y [m]
  double height_m = 2.8;  ///< ceiling height

  /// True if the (x, y) point lies inside the floor rectangle.
  constexpr bool contains_xy(double x, double y) const {
    return x >= 0.0 && x <= width && y >= 0.0 && y <= depth;
  }
};

/// Parameters of a regular n x n ceiling grid of luminaires.
struct GridSpec {
  std::size_t rows = 6;      ///< grid rows (y direction)
  std::size_t cols = 6;      ///< grid columns (x direction)
  double pitch = 0.5;        ///< inter-luminaire spacing [m]
  double mount_height_m = 2.8;  ///< z of the luminaire plane

  /// Total number of luminaires.
  constexpr std::size_t count() const { return rows * cols; }
};

/// Builds downward-facing ceiling poses for the grid, centered in the room.
/// Index order matches the paper's TX numbering: TX1 is the top-left
/// (minimum x, minimum y) and indices advance along x first, then y —
/// i.e. index = row * cols + col, position x = offset + col * pitch.
std::vector<Pose> make_ceiling_grid(const Room& room, const GridSpec& spec);

}  // namespace densevlc::geom
