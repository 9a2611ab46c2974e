#include "fault/fault.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace densevlc::fault {
namespace {

/// Domain tag keeping flicker draws independent of every other stream.
constexpr std::uint64_t kFlickerDomain = 0xF11C'4E5u;

/// Uniform [0, 1) from the top 53 bits of a SplitMix64-mixed key.
double unit_hash(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t mixed =
      Rng::derive_stream_seed(Rng::derive_stream_seed(kFlickerDomain, a), b);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLedBurnout: return "led_burnout";
    case FaultKind::kLedFlicker: return "led_flicker";
    case FaultKind::kDriverSaturation: return "driver_saturation";
    case FaultKind::kRxDropout: return "rx_dropout";
    case FaultKind::kReportLossBurst: return "report_loss_burst";
    case FaultKind::kSyncPilotLoss: return "sync_pilot_loss";
    case FaultKind::kEpochOverrun: return "epoch_overrun";
  }
  return "unknown";
}

void FaultSchedule::add(const FaultEvent& event) {
  DVLC_EXPECT(event.t_end_s >= event.t_start_s,
              "fault window must not end before it starts");
  DVLC_EXPECT(event.magnitude >= 0.0 && event.magnitude <= 1.0,
              "fault magnitude must lie in [0, 1]");
  events_.push_back(event);
}

bool FaultSchedule::tx_dead(std::size_t tx, double t_s) const {
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kLedBurnout && e.target == tx &&
        e.active_at(t_s)) {
      return true;
    }
  }
  return false;
}

double FaultSchedule::tx_output_scale(std::size_t tx, double t_s) const {
  double scale = 1.0;
  for (const auto& e : events_) {
    if (e.target != tx || !e.active_at(t_s)) continue;
    switch (e.kind) {
      case FaultKind::kLedBurnout:
        return 0.0;
      case FaultKind::kDriverSaturation:
        scale = std::min(scale, e.magnitude);
        break;
      case FaultKind::kLedFlicker:
        scale *= 1.0 - e.magnitude *
                           unit_hash(tx, std::bit_cast<std::uint64_t>(t_s));
        break;
      default:
        break;
    }
  }
  return scale;
}

bool FaultSchedule::rx_down(std::size_t rx, double t_s) const {
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kRxDropout && e.target == rx &&
        e.active_at(t_s)) {
      return true;
    }
  }
  return false;
}

bool FaultSchedule::reports_blocked(double t_s) const {
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kReportLossBurst && e.active_at(t_s)) {
      return true;
    }
  }
  return false;
}

bool FaultSchedule::sync_pilot_lost(double t_s) const {
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kSyncPilotLoss && e.active_at(t_s)) return true;
  }
  return false;
}

bool FaultSchedule::epoch_overrun(double t_s) const {
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kEpochOverrun && e.active_at(t_s)) return true;
  }
  return false;
}

std::size_t FaultSchedule::dead_tx_count(double t_s) const {
  std::vector<std::size_t> dead;
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kLedBurnout && e.active_at(t_s)) {
      dead.push_back(e.target);
    }
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  return dead.size();
}

FaultSchedule FaultSchedule::random_led_burnouts(std::size_t num_tx,
                                                 std::size_t count,
                                                 double t_start_s,
                                                 std::uint64_t seed) {
  DVLC_EXPECT(count <= num_tx, "cannot burn out more LEDs than exist");
  // Partial Fisher-Yates over the TX ids: the first `count` entries are a
  // uniform sample without replacement.
  std::vector<std::size_t> ids(num_tx);
  for (std::size_t i = 0; i < num_tx; ++i) ids[i] = i;
  Rng rng{seed};
  FaultSchedule schedule;
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(num_tx) - 1));
    std::swap(ids[i], ids[j]);
    FaultEvent e;
    e.kind = FaultKind::kLedBurnout;
    e.t_start_s = t_start_s;
    e.target = ids[i];
    schedule.add(e);
  }
  return schedule;
}

}  // namespace densevlc::fault
