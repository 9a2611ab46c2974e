// Waveform-level channel measurement (paper Sec. 7.2, "Channel
// measurements").
//
// To quantify link quality, each TX in turn transmits a predefined chip
// pattern; the RX captures it through its full analog chain, estimates
// the received swing amplitude (and the M2M4 SNR), and reports the
// implied path loss back to the controller. The estimate inverts the
// known front-end gain chain, so measured gains are directly comparable
// with model gains — the experimental-pipeline benches (Figs. 18-20)
// build their channel matrices from these measurements.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "channel/model.hpp"
#include "common/rng.hpp"
#include "dsp/correlate.hpp"
#include "dsp/snr_estimator.hpp"
#include "optics/led_model.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"

namespace densevlc::core {

/// One link measurement.
struct ProbeResult {
  double gain_estimate = 0.0;  ///< reconstructed H (optical DC gain)
  double snr_db = 0.0;         ///< M2M4 estimate over the probe chips
  bool detected = false;       ///< probe found above the noise floor
};

/// Measures links by driving the PHY end to end. Links run four at a time
/// through ReceiverFrontEnd::process_batch_into on prober-owned scratch,
/// so a warm prober's sweep allocates only the matrix it returns. The
/// scratch makes probing a mutating operation: one prober per thread.
class ChannelProber {
 public:
  /// `ook` fixes chip rate and currents; probes always use full swing.
  ChannelProber(const optics::LedModel& led, const phy::OokParams& ook,
                const phy::FrontEndConfig& frontend, double max_swing_a);

  /// Probes one link of true gain `h` (from geometry or a fading draw).
  /// Noise and quantization make the estimate imperfect — exactly the
  /// imperfection the heuristic has to live with in practice. A batch of
  /// one through the same code as the sweeps.
  ProbeResult probe_link(double h, Rng& rng);

  /// Probes every entry of a true channel matrix, returning the measured
  /// matrix (undetected links measure 0). Each link draws from its own
  /// split() sub-stream of one fork of `rng`, so `rng` advances by exactly
  /// one fork regardless of size. Bit-identical per link to
  /// probe_link(h, split) on that link's sub-stream.
  channel::ChannelMatrix probe_matrix(const channel::ChannelMatrix& truth,
                                      Rng& rng);

  /// Incremental sweep: probes only the RX columns flagged in `dirty_rx`;
  /// clean columns keep the measurements in `previous` (that airtime is
  /// simply not spent). Consumes exactly one fork of `rng` like
  /// probe_matrix, and keys each link's noise sub-stream by the same
  /// global link index, so an all-dirty mask reproduces probe_matrix
  /// bit for bit. Falls back to a full sweep when `previous` or
  /// `dirty_rx` does not match the truth dimensions.
  channel::ChannelMatrix probe_matrix_incremental(
      const channel::ChannelMatrix& truth, Rng& rng,
      const std::vector<bool>& dirty_rx,
      const channel::ChannelMatrix& previous);

  /// The calibration constant mapping received voltage amplitude back to
  /// channel gain: volts per unit H.
  double volts_per_gain() const { return volts_per_gain_; }

 private:
  static constexpr std::size_t kLanes = 4;

  /// Stages lane `lane` for a probe of gain `h`: the burst scaled by the
  /// channel, and the lane's front end restarted on `rng.fork()` (built
  /// on first use).
  void load_lane(std::size_t lane, double h, Rng& rng);
  /// Runs lanes [0, count) through the batch front end and estimates each.
  void run_lanes(std::size_t count, std::span<ProbeResult> out);
  /// Locates, slices and measures the probe in one received waveform.
  ProbeResult estimate(std::span<const double> rx);

  phy::FrontEndConfig frontend_;
  double eta_;                          ///< LED wall-plug efficiency
  dsp::Waveform burst_power_;           ///< probe burst, LED optical power
  std::vector<double> probe_template_;  ///< probe chips at the ADC rate
  double samples_per_chip_ = 0.0;       ///< at the ADC rate
  double volts_per_gain_ = 0.0;

  // Sweep scratch, reused across calls. The front ends are built by the
  // first probe rather than here, which keeps construction as cheap as a
  // prober that never probes.
  std::array<std::optional<phy::ReceiverFrontEnd>, kLanes> fes_;
  std::array<dsp::Waveform, kLanes> optical_;
  std::array<dsp::Waveform, kLanes> rx_;
  phy::ReceiverFrontEnd::BatchScratch batch_;
  dsp::CorrelateScratch correlate_;
  std::vector<double> chip_values_;
};

}  // namespace densevlc::core
