// Deterministic fault injection for chaos experiments.
//
// The paper's controller assumes every LED, RX report, and WiFi ACK path
// keeps working (Sec. 3.2, 7.2), yet its own blockage and mobility
// experiments (Sec. 8) show links vanishing mid-epoch. A FaultSchedule
// is a declarative list of timed component failures that the system
// consults while it runs: LED burnout and flicker, driver saturation,
// RX dropout, WiFi report-loss bursts, sync-pilot loss, and controller
// epoch overruns. Every query is a pure function of (event set, time),
// and the seeded generators derive their choices through the same
// SplitMix64 stream splitting as the rest of the simulator — identical
// seeds and schedules reproduce a chaos run bit for bit at any thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace densevlc::fault {

/// The component failure modes the system knows how to survive.
enum class FaultKind : std::uint8_t {
  kLedBurnout,       ///< TX emits no light (permanent unless windowed)
  kLedFlicker,       ///< TX optical output jitters multiplicatively
  kDriverSaturation, ///< TX driver caps output at a fraction of commanded
  kRxDropout,        ///< RX neither decodes nor reports
  kReportLossBurst,  ///< WiFi uplink loses every channel report
  kSyncPilotLoss,    ///< NLOS sync pilots go undetected
  kEpochOverrun,     ///< controller misses its decision deadline
};

/// Human-readable fault name (for traces and bench tables).
const char* to_string(FaultKind kind);

/// One timed fault. `target` is the TX id for LED and driver faults and
/// the RX id for RX dropouts; the global kinds (report loss, sync-pilot
/// loss, epoch overrun) ignore it. `magnitude` is the flicker depth in
/// [0, 1] (0 = no effect) or the saturation ceiling in (0, 1] (1 = no
/// effect); other kinds ignore it.
struct FaultEvent {
  FaultKind kind = FaultKind::kLedBurnout;
  double t_start_s = 0.0;
  double t_end_s = std::numeric_limits<double>::infinity();
  std::size_t target = 0;
  double magnitude = 1.0;

  bool active_at(double t_s) const {
    return t_s >= t_start_s && t_s < t_end_s;
  }
};

/// An ordered set of fault events plus the pure queries the control and
/// data planes evaluate against simulated time.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Appends one event (t_end_s must not precede t_start_s).
  void add(const FaultEvent& event);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// True when a burnout has TX `tx` dark at `t_s`.
  bool tx_dead(std::size_t tx, double t_s) const;

  /// Multiplicative optical output factor of TX `tx` at `t_s`: 1 when
  /// healthy, 0 when burnt out, in between under saturation or flicker.
  /// The flicker draw hashes (tx, bit pattern of t_s), so equal queries
  /// return equal jitter on every thread and every run.
  double tx_output_scale(std::size_t tx, double t_s) const;

  /// True when RX `rx` is dropped out at `t_s`.
  bool rx_down(std::size_t rx, double t_s) const;

  /// True while a report-loss burst swallows the whole WiFi uplink.
  bool reports_blocked(double t_s) const;

  /// True while NLOS sync pilots go undetected.
  bool sync_pilot_lost(double t_s) const;

  /// True when the controller overruns the epoch starting at `t_s`.
  bool epoch_overrun(double t_s) const;

  /// Number of TXs dead at `t_s` (distinct burnout targets).
  std::size_t dead_tx_count(double t_s) const;

  /// Seeded generator: burns out `count` distinct LEDs of a `num_tx`
  /// grid at `t_start_s`, permanently. Which LEDs die depends only on
  /// the seed.
  static FaultSchedule random_led_burnouts(std::size_t num_tx,
                                           std::size_t count,
                                           double t_start_s,
                                           std::uint64_t seed);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace densevlc::fault
