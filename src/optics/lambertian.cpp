#include "optics/lambertian.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"

namespace densevlc::optics {

double LambertianEmitter::order() const {
  DVLC_EXPECT(half_power_semi_angle_rad > 0.0 &&
                  half_power_semi_angle_rad < kPi / 2.0,
              "half-power semi-angle must lie in (0, pi/2)");
  return -std::log(2.0) / std::log(std::cos(half_power_semi_angle_rad));
}

double Photodiode::concentrator_gain(double psi_rad) const {
  if (psi_rad > field_of_view_rad) return 0.0;
  const double s = std::sin(field_of_view_rad);
  if (s <= 0.0) return 0.0;
  return concentrator_index * concentrator_index / (s * s);
}

LinkGeometry resolve_geometry(const geom::Pose& emitter,
                              const geom::Pose& receiver,
                              double field_of_view_rad) {
  LinkGeometry g;
  const geom::Vec3 delta = receiver.position - emitter.position;
  g.distance_m = delta.norm();
  if (g.distance_m <= 0.0) return g;
  const geom::Vec3 dir = delta / g.distance_m;

  const double cos_phi = emitter.normal.dot(dir);
  const double cos_psi = receiver.normal.dot(geom::Vec3{} - dir);
  if (cos_phi <= 0.0 || cos_psi <= 0.0) return g;  // facing away

  // A ceiling-down TX and a floor-up RX see the same cosine, -dir.z, on
  // both sides: one acos serves both angles.
  const double clamped_phi = std::min(1.0, cos_phi);
  const double clamped_psi = std::min(1.0, cos_psi);
  g.irradiation_angle_rad = std::acos(clamped_phi);
  g.incidence_angle_rad = clamped_psi == clamped_phi
                              ? g.irradiation_angle_rad
                              : std::acos(clamped_psi);
  g.in_field_of_view = g.incidence_angle_rad <= field_of_view_rad;
  return g;
}

LosModel::LosModel(const LambertianEmitter& emitter, const Photodiode& pd)
    : pd_{pd},
      order_{emitter.order()},
      in_fov_gain_{pd.concentrator_gain(0.0)} {  // flat inside the FoV
  DVLC_EXPECT(pd.collection_area_m2 >= 0.0,
              "photodiode area must be non-negative");
}

double LosModel::gain(const geom::Pose& tx_pose,
                      const geom::Pose& rx_pose) const {
  const LinkGeometry g =
      resolve_geometry(tx_pose, rx_pose, pd_.field_of_view_rad);
  if (!g.in_field_of_view || g.distance_m <= 0.0) return 0.0;
  const double m = order_;
  // cos(acos(c)) is not c bit for bit: the angles go back through cos.
  const double cos_phi = std::cos(g.irradiation_angle_rad);
  const double cos_psi = g.incidence_angle_rad == g.irradiation_angle_rad
                             ? cos_phi
                             : std::cos(g.incidence_angle_rad);
  const double gain = (m + 1.0) * pd_.collection_area_m2 /
                      (2.0 * kPi * g.distance_m * g.distance_m) *
                      std::pow(cos_phi, m) * in_fov_gain_ * cos_psi;
  DVLC_ASSERT(gain >= 0.0, "LOS gain must be non-negative");
  return gain;
}

double radiant_intensity_factor(const LambertianEmitter& emitter,
                                double phi_rad) {
  const double cos_phi = std::cos(phi_rad);
  if (cos_phi <= 0.0) return 0.0;
  const double m = emitter.order();
  return (m + 1.0) / (2.0 * kPi) * std::pow(cos_phi, m);
}

Lux illuminance_lux(const LambertianEmitter& emitter,
                    const geom::Pose& tx_pose, const geom::Pose& surface,
                    Watts optical_power, LumensPerWatt efficacy) {
  DVLC_EXPECT(optical_power >= Watts{0.0},
              "optical power must be non-negative");
  DVLC_EXPECT(efficacy >= LumensPerWatt{0.0},
              "luminous efficacy must be non-negative");
  // Illuminance = luminous intensity toward the point, projected on the
  // surface and spread over d^2:
  //   E = efficacy * P_opt * (m+1)/(2 pi) cos^m(phi) * cos(psi) / d^2.
  const LinkGeometry g = resolve_geometry(tx_pose, surface, kPi / 2.0);
  if (g.distance_m <= 0.0 || !g.in_field_of_view) return Lux{0.0};
  const Lumens intensity =
      radiant_intensity_factor(emitter, g.irradiation_angle_rad) *
      optical_power * efficacy;
  const SquareMeters spread{g.distance_m * g.distance_m};
  return intensity * std::cos(g.incidence_angle_rad) / spread;
}

}  // namespace densevlc::optics
