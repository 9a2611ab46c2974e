#include "geom/grid.hpp"

namespace densevlc::geom {

std::vector<Pose> make_ceiling_grid(const Room& room, const GridSpec& spec) {
  std::vector<Pose> poses;
  poses.reserve(spec.count());
  // Center the grid footprint in the room.
  const double span_x = static_cast<double>(spec.cols - 1) * spec.pitch;
  const double span_y = static_cast<double>(spec.rows - 1) * spec.pitch;
  const double x0 = (room.width - span_x) / 2.0;
  const double y0 = (room.depth - span_y) / 2.0;
  for (std::size_t r = 0; r < spec.rows; ++r) {
    for (std::size_t c = 0; c < spec.cols; ++c) {
      poses.push_back(ceiling_pose(x0 + static_cast<double>(c) * spec.pitch,
                                   y0 + static_cast<double>(r) * spec.pitch,
                                   spec.mount_height_m));
    }
  }
  return poses;
}

}  // namespace densevlc::geom
