// Lambertian line-of-sight channel model (paper Eq. 2).
//
// The optical DC gain between a generalized-Lambertian emitter and a
// photodiode is
//
//   H = (m+1) * Apd / (2*pi*d^2) * cos^m(phi) * g(psi) * cos(psi)
//
// for incidence angles psi within the receiver field of view, else 0.
// m is the Lambertian order derived from the LED half-power semi-angle,
// g(psi) the optical concentrator gain.
#pragma once

#include "common/quantity.hpp"
#include "geom/vec3.hpp"

namespace densevlc::optics {

/// Emission pattern of a generalized-Lambertian LED (plus lens).
struct LambertianEmitter {
  double half_power_semi_angle_rad = 0.2617993877991494;  ///< 15 deg default

  /// Lambertian order m = -ln 2 / ln(cos(phi_1/2)).
  double order() const;
};

/// Photodiode aperture parameters (paper Table 1: S5971 with Apd = 1.1 mm^2,
/// field of view 90 deg, responsivity 0.4 A/W).
struct Photodiode {
  double collection_area_m2 = 1.1e-6;       ///< Apd [m^2]
  double field_of_view_rad = 1.5707963267948966;  ///< Psi_c (half-angle) [rad]
  double responsivity_a_per_w = 0.4;        ///< R [A/W]
  double concentrator_index = 1.0;          ///< n of optical concentrator;
                                            ///< 1.0 = bare diode (g = 1)

  /// Concentrator/filter gain g(psi): n^2 / sin^2(Psi_c) inside the FoV,
  /// 0 outside. With n = 1 and Psi_c = 90 deg this is exactly 1.
  double concentrator_gain(double psi_rad) const;
};

/// Geometry of one TX->RX link resolved into the model's angles.
struct LinkGeometry {
  double distance_m = 0.0;         ///< d
  double irradiation_angle_rad = 0.0;  ///< phi, from emitter normal
  double incidence_angle_rad = 0.0;    ///< psi, from receiver normal
  bool in_field_of_view = false;       ///< psi <= Psi_c and facing
};

/// Resolves emitter/receiver poses into link geometry. Links where either
/// side faces away (cos <= 0) are flagged out of view.
LinkGeometry resolve_geometry(const geom::Pose& emitter,
                              const geom::Pose& receiver,
                              double field_of_view_rad);

/// Eq. 2 for one emitter/photodiode pair. The link-independent factors,
/// the Lambertian order and the in-FoV concentrator gain, are computed
/// once at construction and shared by every link of a channel matrix.
class LosModel {
 public:
  LosModel(const LambertianEmitter& emitter, const Photodiode& pd);

  /// LOS channel DC gain H (dimensionless optical power ratio, Eq. 2).
  /// Returns 0 when the receiver is outside the field of view or either
  /// element faces away from the other.
  double gain(const geom::Pose& tx_pose, const geom::Pose& rx_pose) const;

 private:
  Photodiode pd_;
  double order_ = 0.0;
  double in_fov_gain_ = 0.0;
};

/// Radiant intensity pattern value (m+1)/(2*pi) * cos^m(phi) [1/sr].
/// Multiplying by emitted optical power gives W/sr toward angle phi.
double radiant_intensity_factor(const LambertianEmitter& emitter,
                                double phi_rad);

/// Illuminance produced at a surface point by an emitter radiating
/// `optical_power` of white light with luminous efficacy `efficacy`.
/// The surface normal is the receiver pose normal. W * (lm/W) / m^2 = lx
/// is derived by the quantity algebra.
Lux illuminance_lux(const LambertianEmitter& emitter,
                    const geom::Pose& tx_pose, const geom::Pose& surface,
                    Watts optical_power, LumensPerWatt efficacy);

}  // namespace densevlc::optics
