// DenseVlcSystem: the full cell-free VLC MIMO system, end to end.
//
// Owns the discrete-event simulator, the control-plane network models,
// the controller, the channel prober, and the waveform data path, and
// runs the MAC protocol of paper Sec. 3.2:
//
//   1. probe phase — every TX in turn radiates the measurement pattern;
//      all RXs estimate their downlink gains;
//   2. report phase — RXs push their measurements to the controller over
//      the WiFi uplink (reports can be lost; stale columns persist);
//   3. decision — the controller runs the SJR heuristic and forms
//      beamspots with appointed leading TXs;
//   4. data phase — the controller multicasts frames over Ethernet; the
//      selected TXs transmit jointly, aligned by the configured sync
//      method; RXs decode and acknowledge over WiFi.
//
// Two evaluation paths exist, matching the paper's own methodology:
// frame-accurate waveform simulation (run()) for PER/sync experiments,
// and the analytic SINR/Shannon path (run_epoch_analytic()) for the
// throughput-versus-power studies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/model.hpp"
#include "common/rng.hpp"
#include "core/beamspot.hpp"
#include "core/config.hpp"
#include "core/controller.hpp"
#include "core/prober.hpp"
#include "net/links.hpp"
#include "common/event_queue.hpp"
#include "geom/mobility.hpp"

namespace densevlc::core {

/// Per-receiver counters from a waveform-level run.
struct RxStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t payload_bits_delivered = 0;
  std::uint64_t acks_received = 0;

  /// Packet error rate in [0, 1].
  double per() const {
    return frames_sent == 0
               ? 0.0
               : 1.0 - static_cast<double>(frames_delivered) /
                           static_cast<double>(frames_sent);
  }
};

/// Summary of a waveform-level run.
struct RunReport {
  std::vector<RxStats> rx;
  std::size_t epochs = 0;
  double duration_s = 0.0;

  /// Delivered goodput of one RX [bit/s].
  double throughput_bps(std::size_t rx_id) const {
    return duration_s > 0.0
               ? static_cast<double>(rx[rx_id].payload_bits_delivered) /
                     duration_s
               : 0.0;
  }
};

/// Summary of one analytic (SINR-model) epoch.
struct EpochReport {
  std::vector<double> throughput_bps;  ///< per RX, Shannon under truth
  double power_used_w = 0.0;
  std::size_t txs_assigned = 0;
  std::vector<Beamspot> beamspots;
};

/// The assembled system.
class DenseVlcSystem {
 public:
  /// `mobility` supplies one model per RX (the models define the RX count).
  DenseVlcSystem(const SystemConfig& cfg,
                 std::vector<std::unique_ptr<geom::MobilityModel>> mobility);

  /// Convenience: static RXs at the given floor positions.
  static DenseVlcSystem with_static_rxs(
      const SystemConfig& cfg, const std::vector<geom::Vec3>& positions);

  std::size_t num_rx() const { return mobility_.size(); }
  std::size_t num_tx() const { return cfg_.testbed.grid.count(); }

  /// True LOS channel matrix at simulated time `t_s` (geometry + optics).
  channel::ChannelMatrix true_channel(double t_s) const;

  /// true_channel with the fault schedule applied: burnt-out LEDs
  /// radiate nothing, saturated or flickering drivers scale their rows.
  /// This is the physical channel the probes and data frames actually
  /// traverse while faults are active.
  channel::ChannelMatrix faulted_channel(double t_s) const;

  /// Runs the full MAC with the waveform data path for `duration_s`
  /// simulated seconds, `payload_bytes` per data frame.
  RunReport run(double duration_s, std::size_t payload_bytes);

  /// Per-RX reliability counters from an ARQ run.
  struct ArqStats {
    std::uint64_t segments_offered = 0;
    std::uint64_t segments_delivered = 0;  ///< ACKed at the controller
    std::uint64_t segments_dropped = 0;    ///< retry budget exhausted
    std::uint64_t transmissions = 0;       ///< incl. retransmissions
    std::uint64_t duplicates = 0;          ///< suppressed at the RX
    std::uint64_t give_ups = 0;            ///< typed ARQ give-up notices
  };
  struct ArqReport {
    std::vector<ArqStats> rx;
    double duration_s = 0.0;

    /// Application goodput [bit/s] counting each segment once.
    double goodput_bps(std::size_t rx_id, std::size_t payload_bytes) const {
      return duration_s > 0.0
                 ? static_cast<double>(rx[rx_id].segments_delivered) *
                       static_cast<double>(payload_bytes) * 8.0 / duration_s
                 : 0.0;
    }
  };

  /// Like run(), but with stop-and-wait ARQ on every beamspot: the
  /// controller retransmits unacknowledged segments (up to
  /// `max_attempts`), receivers suppress duplicates, and lost WiFi ACKs
  /// trigger spurious-but-harmless retries. Each RX is offered
  /// `segments_per_rx` segments up front.
  ArqReport run_arq(double duration_s, std::size_t payload_bytes,
                    std::size_t segments_per_rx,
                    std::size_t max_attempts = 4);

  /// Runs probe + report + decision at time `t_s` on the analytic path
  /// and returns expected Shannon throughputs under the true channel.
  EpochReport run_epoch_analytic(double t_s);

  /// Draws the per-TX start-time offsets for a beamspot transmission
  /// under the configured sync mode [s]. While a sync-pilot-loss fault
  /// is active at `t_s`, NLOS-synced followers miss the leader's pilot
  /// and fall back to the unsynchronized start-time spread.
  std::vector<double> draw_tx_offsets(const Beamspot& spot, Rng& rng,
                                      double t_s = 0.0) const;

  /// BBB hosting TX `id`: the grid is managed in 2x2 blocks of four TXs
  /// per BeagleBone (Sec. 7.1), so TX2 and TX8 share a board.
  std::size_t bbb_of(std::size_t tx_id) const;

  const Controller& controller() const { return controller_; }
  const SystemConfig& config() const { return cfg_; }

  /// Empirical NLOS sync error samples [signed s], empty unless the sync
  /// mode is kNlosVlc. The 32-pilot characterization behind them runs on
  /// the first call (draw_tx_offsets makes it), on a stream forked at
  /// construction, so the samples do not depend on when it runs.
  const std::vector<double>& nlos_error_samples() const;

 private:
  void measure_and_decide(double t_s, Rng& rng);

  SystemConfig cfg_;
  std::vector<std::unique_ptr<geom::MobilityModel>> mobility_;
  Controller controller_;
  ChannelProber prober_;
  JointTransmission data_path_;
  Rng master_rng_;
  // The NLOS characterization, built on first use from the stream seeded
  // by nlos_seed_. mutable: nlos_error_samples() is logically const; the
  // system is driven from a single thread.
  std::uint64_t nlos_seed_ = 0;
  mutable std::vector<double> nlos_errors_;
  mutable bool nlos_ready_ = false;
  // Last measured gains per RX (columns survive lost reports).
  std::vector<std::vector<double>> last_reports_;
  std::uint8_t epoch_counter_ = 0;
  // Geometry cache behind true_channel(): only the columns of RXs that
  // moved (x/y — rx_poses ignores z) are recomputed, which is
  // bit-identical to a full rebuild because LosModel::gain is a pure
  // function of the poses. mutable: true_channel() is logically const; the
  // system is driven from a single thread.
  mutable std::vector<geom::Vec3> truth_positions_;
  mutable channel::ChannelMatrix truth_cache_;
  mutable bool truth_cache_valid_ = false;
  // Incremental-probing state (cfg_.incremental_probing): the physical
  // channel seen by the last probe sweep, and what it measured.
  channel::ChannelMatrix last_probe_truth_;
  channel::ChannelMatrix last_measured_;
  bool have_probe_cache_ = false;
};

}  // namespace densevlc::core
