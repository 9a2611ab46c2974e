// Multi-link channel abstraction: gains, SINR, throughput, power.
//
// This module implements the system model of paper Sec. 3.3-3.4 for N
// transmitters and M receivers:
//
//   SINR_i = (R eta r sum_j H_{j,i} (I^{j,i}/2)^2)^2
//            -----------------------------------------------------  (Eq. 12)
//            N0 B + (R eta r sum_{k != i} sum_j H_{j,i} (I^{j,k}/2)^2)^2
//
//   P_C,tot = sum_j r * (sum_k I^{j,k} / 2)^2                       (Eq. 7)
//
//   throughput_i = B log2(1 + SINR_i), utility = sum_i log(throughput_i)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/quantity.hpp"
#include "geom/vec3.hpp"
#include "optics/lambertian.hpp"
#include "optics/led_model.hpp"

namespace densevlc::channel {

/// The N x M line-of-sight gain matrix between TXs (rows) and RXs (cols).
class ChannelMatrix {
 public:
  ChannelMatrix() = default;

  /// Dense construction from raw gains (row-major: gains[j * num_rx + k]).
  ChannelMatrix(std::size_t num_tx, std::size_t num_rx,
                std::vector<double> gains);

  /// Computes gains from geometry with the Lambertian LOS model; the
  /// link-independent factors are computed once per matrix.
  static ChannelMatrix from_geometry(
      const std::vector<geom::Pose>& tx_poses,
      const std::vector<geom::Pose>& rx_poses,
      const optics::LambertianEmitter& emitter, const optics::Photodiode& pd);

  /// Recomputes only the listed RX columns from geometry; every other
  /// entry keeps its value. Each entry is the same optics::LosModel::gain
  /// call from_geometry makes, so updating the dirty columns of a cached
  /// matrix is bit-identical to a full rebuild. Dimensions must match.
  void update_columns_from_geometry(
      const std::vector<geom::Pose>& tx_poses,
      const std::vector<geom::Pose>& rx_poses,
      const optics::LambertianEmitter& emitter, const optics::Photodiode& pd,
      std::span<const std::size_t> dirty_rx);

  std::size_t num_tx() const { return num_tx_; }
  std::size_t num_rx() const { return num_rx_; }

  /// Gain H_{tx, rx}.
  double gain(std::size_t tx, std::size_t rx) const {
    DVLC_ASSERT(tx < num_tx_ && rx < num_rx_, "gain index out of range");
    return gains_[tx * num_rx_ + rx];
  }

  /// Mutable access (used by the experimental-measurement pipeline, which
  /// overwrites model gains with measured ones).
  void set_gain(std::size_t tx, std::size_t rx, double h) {
    DVLC_ASSERT(tx < num_tx_ && rx < num_rx_, "set_gain index out of range");
    gains_[tx * num_rx_ + rx] = h;
  }

  /// Index of the TX with the strongest channel to `rx`.
  std::size_t best_tx_for(std::size_t rx) const;

 private:
  std::size_t num_tx_ = 0;
  std::size_t num_rx_ = 0;
  std::vector<double> gains_;
};

/// Scalar link-budget parameters entering the SINR (paper Table 1).
struct LinkBudget {
  double responsivity_a_per_w = 0.4;      ///< R
  double wall_plug_efficiency = 0.4;      ///< eta
  double dynamic_resistance_ohm = 0.2188; ///< r at Ib = 450 mA (CREE XT-E)
  double noise_psd_a2_per_hz = 7.02e-23;  ///< N0 (single-sided)
  double bandwidth_hz = 1e6;              ///< B

  /// Builds the budget from an LED model (derives r and eta).
  static LinkBudget from_led(const optics::LedModel& led,
                             AmperesPerWatt responsivity,
                             AmpsSquaredPerHertz noise_psd, Hertz bandwidth);

  /// Typed views of the scalar fields (the aggregate keeps raw doubles so
  /// designated-initializer call sites stay terse).
  Ohms dynamic_resistance() const { return Ohms{dynamic_resistance_ohm}; }
  Hertz bandwidth() const { return Hertz{bandwidth_hz}; }
};

/// A swing-current allocation: entry (j, k) is TX j's swing dedicated to
/// RX k [A]. Row-major storage. The matrix itself is raw-double bulk
/// storage (the optimizer's vectorized updates run on data()); typed
/// quantities re-enter at the per-TX aggregate (tx_total_swing) and the
/// power functions below.
class Allocation {
 public:
  Allocation() = default;
  Allocation(std::size_t num_tx, std::size_t num_rx)
      : num_tx_{num_tx}, num_rx_{num_rx}, swing_(num_tx * num_rx, 0.0) {}

  std::size_t num_tx() const { return num_tx_; }
  std::size_t num_rx() const { return num_rx_; }

  double swing(std::size_t tx, std::size_t rx) const {
    DVLC_ASSERT(tx < num_tx_ && rx < num_rx_, "swing index out of range");
    return swing_[tx * num_rx_ + rx];
  }
  void set_swing(std::size_t tx, std::size_t rx, double isw) {
    DVLC_ASSERT(tx < num_tx_ && rx < num_rx_, "set_swing index out of range");
    DVLC_EXPECT(isw >= 0.0, "swing current must be non-negative");
    swing_[tx * num_rx_ + rx] = isw;
  }

  /// Total swing emitted by TX j (sum over RXs) — the quantity bounded by
  /// Isw,max in constraint (6) and entering the power in Eq. (7).
  Amperes tx_total_swing(std::size_t tx) const;

  /// Raw storage (for the optimizer's vectorized updates).
  std::vector<double>& data() { return swing_; }
  const std::vector<double>& data() const { return swing_; }

 private:
  std::size_t num_tx_ = 0;
  std::size_t num_rx_ = 0;
  std::vector<double> swing_;
};

/// Per-RX SINR under an allocation (Eq. 12). Vector of length num_rx.
std::vector<double> sinr(const ChannelMatrix& h, const Allocation& alloc,
                         const LinkBudget& budget);

/// Shannon throughput per RX: B log2(1 + SINR) [bit/s].
std::vector<double> throughput_bps(const ChannelMatrix& h,
                                   const Allocation& alloc,
                                   const LinkBudget& budget);

/// Proportional-fairness objective of Eq. (5): sum_i ln(throughput_i).
/// RXs with zero throughput contribute a large negative penalty instead of
/// -inf so gradient methods keep a usable search direction.
double sum_log_utility(const ChannelMatrix& h, const Allocation& alloc,
                       const LinkBudget& budget);

/// Total extra electrical power spent on communication (Eq. 7).
Watts total_comm_power(const Allocation& alloc, const LinkBudget& budget);

/// Communication power drawn by a single TX at total swing `total_swing`:
/// r * (Isw/2)^2, the A^2 * ohm = W product of Eq. (7), dimension-checked
/// at compile time.
Watts tx_comm_power(Amperes total_swing, const LinkBudget& budget);

}  // namespace densevlc::channel
