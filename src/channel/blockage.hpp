// Line-of-sight blockage (paper Sec. 9, "Blockage").
//
// People and furniture interrupt VLC links. The standard model is a
// vertical cylinder (a human body): a link is blocked when its 3-D
// segment from TX to RX passes through the cylinder volume. In
// traditional VLC blockage only hurts; the paper conjectures that in
// cell-free massive MIMO it "could bring benefit to the system since it
// can reduce the interference from other TXs" — the blockage extension
// bench quantifies exactly that.
#pragma once

#include <span>
#include <vector>

#include "channel/model.hpp"
#include "geom/vec3.hpp"

namespace densevlc::channel {

/// A vertical cylindrical blocker standing on the floor.
struct CylinderBlocker {
  double x = 0.0;        ///< center x [m]
  double y = 0.0;        ///< center y [m]
  double radius = 0.15;  ///< ~human torso
  double height_m = 1.7;  ///< top of the cylinder
};

/// True if the open segment a->b intersects the blocker volume.
/// Endpoints exactly on the surface do not count as blocked.
bool segment_blocked(const geom::Vec3& a, const geom::Vec3& b,
                     const CylinderBlocker& blocker);

/// Returns a copy of `h` with every blocked link's gain set to zero.
/// `tx_poses` / `rx_poses` must match the matrix dimensions.
ChannelMatrix apply_blockage(const ChannelMatrix& h,
                             const std::vector<geom::Pose>& tx_poses,
                             const std::vector<geom::Pose>& rx_poses,
                             std::span<const CylinderBlocker> blockers);

}  // namespace densevlc::channel
