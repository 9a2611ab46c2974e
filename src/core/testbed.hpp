// The DenseVLC testbeds of paper Table 1: room, TX grid, optics, LED
// operating point and link budget, plus the geometry-to-channel helpers
// every evaluation path uses.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "channel/model.hpp"
#include "geom/grid.hpp"
#include "geom/vec3.hpp"
#include "optics/lambertian.hpp"
#include "optics/led_model.hpp"

namespace densevlc::core {

/// Everything about the physical testbed the channel model depends on.
struct Testbed {
  geom::Room room{};
  geom::GridSpec grid{};
  double rx_height_m = 0.8;  ///< z of the receiver plane
  optics::LambertianEmitter emitter{};
  optics::Photodiode pd{};
  optics::LedModel led{};
  channel::LinkBudget budget{};

  /// Downward-facing ceiling poses of the TX grid, row-major.
  std::vector<geom::Pose> tx_poses() const;

  /// Upward-facing receiver poses at rx_height_m; only x/y are used.
  std::vector<geom::Pose> rx_poses(const std::vector<geom::Vec3>& xy) const;

  /// LOS channel matrix for receivers at the given floor positions.
  channel::ChannelMatrix channel_for(const std::vector<geom::Vec3>& xy) const;

  /// LOS channel matrix for arbitrary receiver poses (tilted RXs).
  channel::ChannelMatrix channel_for_poses(
      const std::vector<geom::Pose>& rx_poses) const;

  /// Recomputes the `dirty` RX columns of `h` for receivers at `xy`;
  /// bit-identical to channel_for(xy) on those columns.
  void update_channel_for(channel::ChannelMatrix& h,
                          const std::vector<geom::Vec3>& xy,
                          std::span<const std::size_t> dirty) const;
};

/// Paper Table 1 simulation testbed: 3 x 3 x 2.8 m room, 6 x 6 grid at
/// 0.5 m pitch mounted at 2.8 m, receivers at 0.8 m.
Testbed make_simulation_testbed();

/// Sec. 7 experimental testbed: the same grid mounted at 2.0 m, receivers
/// on the floor.
Testbed make_experimental_testbed();

}  // namespace densevlc::core
