#include "geom/mobility.hpp"

#include <stdexcept>

namespace densevlc::geom {

WaypointMobility::WaypointMobility(std::vector<Waypoint> waypoints)
    : waypoints_{std::move(waypoints)} {
  if (waypoints_.empty()) {
    throw std::invalid_argument{"WaypointMobility: need >= 1 waypoint"};
  }
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    if (waypoints_[i].time_s <= waypoints_[i - 1].time_s) {
      throw std::invalid_argument{
          "WaypointMobility: times must be strictly increasing"};
    }
  }
}

geom::Vec3 WaypointMobility::position(double t_s) const {
  if (t_s <= waypoints_.front().time_s) return waypoints_.front().pos;
  if (t_s >= waypoints_.back().time_s) return waypoints_.back().pos;
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    if (t_s <= waypoints_[i].time_s) {
      const auto& a = waypoints_[i - 1];
      const auto& b = waypoints_[i];
      const double f = (t_s - a.time_s) / (b.time_s - a.time_s);
      return a.pos + (b.pos - a.pos) * f;
    }
  }
  return waypoints_.back().pos;
}

}  // namespace densevlc::geom
