#include "illum/illuminance_map.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace densevlc::illum {

IlluminanceMap::IlluminanceMap(const geom::Room& room,
                               const std::vector<geom::Pose>& luminaires,
                               const optics::LambertianEmitter& emitter,
                               const optics::LedModel& led,
                               Meters plane_height,
                               std::size_t samples_per_axis,
                               LumensPerWatt efficacy)
    : room_{room},
      luminaires_{luminaires},
      emitter_{emitter},
      optical_power_w_{led.optical_power_illumination().value()},
      efficacy_{efficacy.value()},
      plane_height_m_{plane_height.value()},
      per_axis_{samples_per_axis} {
  lux_.resize(per_axis_ * per_axis_, 0.0);
  if (per_axis_ == 0) return;
  const double dx =
      per_axis_ > 1 ? room.width / static_cast<double>(per_axis_ - 1) : 0.0;
  const double dy =
      per_axis_ > 1 ? room.depth / static_cast<double>(per_axis_ - 1) : 0.0;
  for (std::size_t iy = 0; iy < per_axis_; ++iy) {
    for (std::size_t ix = 0; ix < per_axis_; ++ix) {
      lux_[iy * per_axis_ + ix] =
          evaluate(Meters{static_cast<double>(ix) * dx},
                   Meters{static_cast<double>(iy) * dy})
              .value();
    }
  }
}

Lux IlluminanceMap::at(std::size_t ix, std::size_t iy) const {
  return Lux{lux_[iy * per_axis_ + ix]};
}

Lux IlluminanceMap::evaluate(Meters x, Meters y) const {
  DVLC_EXPECT(std::isfinite(x.value()) && std::isfinite(y.value()),
              "sample point must be finite");
  const geom::Pose point =
      geom::floor_pose(x.value(), y.value(), plane_height_m_);
  Lux total{0.0};
  for (const auto& lum : luminaires_) {
    total += optics::illuminance_lux(emitter_, lum, point,
                                     Watts{optical_power_w_},
                                     LumensPerWatt{efficacy_});
  }
  return total;
}

IlluminanceMap::AreaStats IlluminanceMap::area_of_interest_stats(
    Meters side) const {
  DVLC_EXPECT(side.value() >= 0.0, "area-of-interest side must be >= 0");
  AreaStats s;
  if (per_axis_ == 0) return s;
  const double cx = room_.width / 2.0;
  const double cy = room_.depth / 2.0;
  const double half = side.value() / 2.0;
  const double dx =
      per_axis_ > 1 ? room_.width / static_cast<double>(per_axis_ - 1) : 0.0;
  const double dy =
      per_axis_ > 1 ? room_.depth / static_cast<double>(per_axis_ - 1) : 0.0;
  double sum = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t iy = 0; iy < per_axis_; ++iy) {
    const double y = static_cast<double>(iy) * dy;
    if (y < cy - half || y > cy + half) continue;
    for (std::size_t ix = 0; ix < per_axis_; ++ix) {
      const double x = static_cast<double>(ix) * dx;
      if (x < cx - half || x > cx + half) continue;
      const double v = at(ix, iy).value();
      if (s.samples == 0) {
        lo = hi = v;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      sum += v;
      ++s.samples;
    }
  }
  if (s.samples == 0) return s;
  s.average_lux = sum / static_cast<double>(s.samples);
  s.min_lux = lo;
  s.max_lux = hi;
  s.uniformity = s.average_lux > 0.0 ? s.min_lux / s.average_lux : 0.0;
  return s;
}

bool IlluminanceMap::satisfies(const IsoRequirement& req,
                               Meters side) const {
  DVLC_EXPECT(req.min_average_lux >= 0.0 && req.min_uniformity >= 0.0,
              "ISO requirement thresholds must be >= 0");
  const AreaStats s = area_of_interest_stats(side);
  return s.average_lux >= req.min_average_lux &&
         s.uniformity >= req.min_uniformity;
}

Amperes size_bias_for_average_lux(const geom::Room& room,
                                  const std::vector<geom::Pose>& luminaires,
                                  const optics::LambertianEmitter& emitter,
                                  const optics::LedElectrical& elec,
                                  Meters plane_height, Meters aoi_side,
                                  Lux target, LumensPerWatt efficacy,
                                  Amperes i_max) {
  DVLC_EXPECT(i_max.value() > 0.0, "bias search needs a positive i_max");
  DVLC_EXPECT(target.value() >= 0.0, "target illuminance must be >= 0");
  auto average_at = [&](double bias) {
    optics::LedModel led{elec, {bias, 2.0 * bias}};
    const IlluminanceMap map{room,         luminaires, emitter, led,
                             plane_height, 31,         efficacy};
    return map.area_of_interest_stats(aoi_side).average_lux;
  };
  double lo = 1e-4;
  double hi = i_max.value();
  if (average_at(hi) < target.value()) return Amperes{hi};
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (average_at(mid) < target.value()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return Amperes{hi};
}

}  // namespace densevlc::illum
