// Tests for the deterministic fault-injection schedule.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <set>

namespace densevlc::fault {
namespace {

FaultEvent make_event(FaultKind kind, double t0, double t1,
                      std::size_t target = 0, double magnitude = 1.0) {
  FaultEvent e;
  e.kind = kind;
  e.t_start_s = t0;
  e.t_end_s = t1;
  e.target = target;
  e.magnitude = magnitude;
  return e;
}

TEST(FaultSchedule, EmptyScheduleIsTransparent) {
  const FaultSchedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.tx_dead(0, 0.0));
  EXPECT_DOUBLE_EQ(s.tx_output_scale(0, 0.0), 1.0);
  EXPECT_FALSE(s.rx_down(0, 0.0));
  EXPECT_FALSE(s.reports_blocked(0.0));
  EXPECT_FALSE(s.sync_pilot_lost(0.0));
  EXPECT_FALSE(s.epoch_overrun(0.0));
  EXPECT_EQ(s.dead_tx_count(0.0), 0u);
}

TEST(FaultSchedule, WindowIsHalfOpen) {
  FaultSchedule s;
  s.add(make_event(FaultKind::kLedBurnout, 2.0, 5.0, 7));
  EXPECT_FALSE(s.tx_dead(7, 1.999));
  EXPECT_TRUE(s.tx_dead(7, 2.0));   // start inclusive
  EXPECT_TRUE(s.tx_dead(7, 4.999));
  EXPECT_FALSE(s.tx_dead(7, 5.0));  // end exclusive
  EXPECT_FALSE(s.tx_dead(6, 3.0));  // wrong target
}

TEST(FaultSchedule, PermanentBurnoutNeverEnds) {
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::kLedBurnout;
  e.t_start_s = 1.0;
  e.target = 3;  // default t_end_s = infinity
  s.add(e);
  EXPECT_TRUE(s.tx_dead(3, 1e9));
  EXPECT_DOUBLE_EQ(s.tx_output_scale(3, 1e9), 0.0);
}

TEST(FaultSchedule, SaturationCapsOutputScale) {
  FaultSchedule s;
  s.add(make_event(FaultKind::kDriverSaturation, 0.0, 10.0, 2, 0.4));
  EXPECT_DOUBLE_EQ(s.tx_output_scale(2, 5.0), 0.4);
  EXPECT_DOUBLE_EQ(s.tx_output_scale(2, 10.0), 1.0);  // window closed
  EXPECT_FALSE(s.tx_dead(2, 5.0));  // saturated, not dead
}

TEST(FaultSchedule, FlickerIsDeterministicAndBounded) {
  FaultSchedule s;
  s.add(make_event(FaultKind::kLedFlicker, 0.0, 100.0, 4, 0.5));
  const double first = s.tx_output_scale(4, 3.25);
  // Same (tx, time) query always hashes to the same jitter.
  EXPECT_DOUBLE_EQ(s.tx_output_scale(4, 3.25), first);
  // Depth 0.5 keeps the output within [0.5, 1].
  bool varies = false;
  double prev = first;
  for (int i = 0; i < 64; ++i) {
    const double scale = s.tx_output_scale(4, 0.1 * i);
    EXPECT_GE(scale, 0.5);
    EXPECT_LE(scale, 1.0);
    varies = varies || scale != prev;
    prev = scale;
  }
  EXPECT_TRUE(varies);  // it must actually flicker
}

TEST(FaultSchedule, GlobalKindsIgnoreTarget) {
  FaultSchedule s;
  s.add(make_event(FaultKind::kReportLossBurst, 1.0, 2.0, 99));
  s.add(make_event(FaultKind::kSyncPilotLoss, 3.0, 4.0));
  s.add(make_event(FaultKind::kEpochOverrun, 5.0, 6.0));
  EXPECT_TRUE(s.reports_blocked(1.5));
  EXPECT_FALSE(s.reports_blocked(2.5));
  EXPECT_TRUE(s.sync_pilot_lost(3.5));
  EXPECT_TRUE(s.epoch_overrun(5.5));
  EXPECT_FALSE(s.epoch_overrun(4.5));
}

TEST(FaultSchedule, RxDropoutTracksTarget) {
  FaultSchedule s;
  s.add(make_event(FaultKind::kRxDropout, 0.0, 2.0, 1));
  EXPECT_TRUE(s.rx_down(1, 1.0));
  EXPECT_FALSE(s.rx_down(0, 1.0));
  EXPECT_FALSE(s.rx_down(1, 2.0));
}

TEST(FaultSchedule, DeadTxCountDeduplicatesTargets) {
  FaultSchedule s;
  s.add(make_event(FaultKind::kLedBurnout, 0.0, 10.0, 5));
  s.add(make_event(FaultKind::kLedBurnout, 1.0, 10.0, 5));  // same TX again
  s.add(make_event(FaultKind::kLedBurnout, 1.0, 10.0, 6));
  EXPECT_EQ(s.dead_tx_count(2.0), 2u);
  EXPECT_EQ(s.dead_tx_count(0.5), 1u);
}

TEST(FaultSchedule, RandomBurnoutsAreSeededAndDistinct) {
  const auto a = FaultSchedule::random_led_burnouts(36, 8, 3.0, 0xFA17);
  const auto b = FaultSchedule::random_led_burnouts(36, 8, 3.0, 0xFA17);
  const auto c = FaultSchedule::random_led_burnouts(36, 8, 3.0, 0xFA18);
  ASSERT_EQ(a.size(), 8u);
  std::set<std::size_t> targets_a, targets_c;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, FaultKind::kLedBurnout);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);  // same seed
    EXPECT_DOUBLE_EQ(a.events()[i].t_start_s, 3.0);
    targets_a.insert(a.events()[i].target);
    targets_c.insert(c.events()[i].target);
    EXPECT_LT(a.events()[i].target, 36u);
  }
  EXPECT_EQ(targets_a.size(), 8u);  // no TX burnt twice
  EXPECT_EQ(a.dead_tx_count(4.0), 8u);
  // A different seed must (with these values) pick a different set.
  EXPECT_NE(targets_a, targets_c);
}

TEST(FaultSchedule, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(FaultKind::kLedBurnout), "led_burnout");
  EXPECT_STREQ(to_string(FaultKind::kLedFlicker), "led_flicker");
  EXPECT_STREQ(to_string(FaultKind::kDriverSaturation), "driver_saturation");
  EXPECT_STREQ(to_string(FaultKind::kRxDropout), "rx_dropout");
  EXPECT_STREQ(to_string(FaultKind::kReportLossBurst), "report_loss_burst");
  EXPECT_STREQ(to_string(FaultKind::kSyncPilotLoss), "sync_pilot_loss");
  EXPECT_STREQ(to_string(FaultKind::kEpochOverrun), "epoch_overrun");
}

}  // namespace
}  // namespace densevlc::fault
