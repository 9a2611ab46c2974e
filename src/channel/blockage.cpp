#include "channel/blockage.hpp"

#include <algorithm>
#include <cmath>

namespace densevlc::channel {

bool segment_blocked(const geom::Vec3& a, const geom::Vec3& b,
                     const CylinderBlocker& blocker) {
  // Project onto the XY plane: find the parameter range of the segment
  // inside the blocker's circle, then check whether any point of that
  // range has z within [0, height].
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double fx = a.x - blocker.x;
  const double fy = a.y - blocker.y;

  const double qa = dx * dx + dy * dy;
  const double qb = 2.0 * (fx * dx + fy * dy);
  const double qc = fx * fx + fy * fy - blocker.radius * blocker.radius;

  double t0;
  double t1;
  if (qa < 1e-18) {
    // Vertical segment in XY: inside the circle or not, wholly.
    if (qc > 0.0) return false;
    t0 = 0.0;
    t1 = 1.0;
  } else {
    const double disc = qb * qb - 4.0 * qa * qc;
    if (disc <= 0.0) return false;  // misses (or grazes) the circle
    const double root = std::sqrt(disc);
    t0 = (-qb - root) / (2.0 * qa);
    t1 = (-qb + root) / (2.0 * qa);
    // Clip to the segment; keep an open interval so touching endpoints
    // do not count.
    t0 = std::max(t0, 0.0);
    t1 = std::min(t1, 1.0);
    if (t0 >= t1) return false;
  }

  // z is affine in t: the segment portion inside the circle spans
  // z in [min, max]; blocked if that interval meets [0, height].
  const double z0 = a.z + (b.z - a.z) * t0;
  const double z1 = a.z + (b.z - a.z) * t1;
  const double z_lo = std::min(z0, z1);
  const double z_hi = std::max(z0, z1);
  return z_lo <= blocker.height_m && z_hi >= 0.0;
}

ChannelMatrix apply_blockage(const ChannelMatrix& h,
                             const std::vector<geom::Pose>& tx_poses,
                             const std::vector<geom::Pose>& rx_poses,
                             std::span<const CylinderBlocker> blockers) {
  ChannelMatrix out = h;
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    for (std::size_t k = 0; k < h.num_rx(); ++k) {
      for (const auto& blocker : blockers) {
        if (segment_blocked(tx_poses[j].position, rx_poses[k].position,
                            blocker)) {
          out.set_gain(j, k, 0.0);
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace densevlc::channel
