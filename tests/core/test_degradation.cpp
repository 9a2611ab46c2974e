// Tests for the controller's degradation state machine: report aging
// (hold, then expiry), re-probe backoff, the watchdog hold, and leader
// re-election when a beamspot's leading TX dies.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::core {
namespace {

struct Fixture {
  Testbed tb = make_simulation_testbed();
  channel::ChannelMatrix h = tb.channel_for(scenario::fig7_rx_positions());

  ControllerConfig config(std::size_t hold_epochs = 3,
                          std::size_t backoff_max_epochs = 8) const {
    ControllerConfig cc;
    cc.power_budget_w = 1.2;
    cc.max_swing_a = 0.9;
    cc.link_budget = tb.budget;
    cc.degradation.hold_epochs = hold_epochs;
    cc.degradation.backoff_initial_epochs = 1;
    cc.degradation.backoff_max_epochs = backoff_max_epochs;
    return cc;
  }

  EpochInput input(std::vector<bool> fresh = {},
                   std::vector<bool> dead_tx = {},
                   bool overrun = false) const {
    EpochInput in;
    in.measured = h;
    in.fresh = std::move(fresh);
    in.dead_tx = std::move(dead_tx);
    in.overrun = overrun;
    return in;
  }
};

TEST(Degradation, SilentRxIsHeldThenExpires) {
  Fixture f;
  Controller ctl{f.config(/*hold_epochs=*/2)};
  ctl.update_epoch(f.input());
  ASSERT_TRUE(ctl.beamspot_for(2).has_value());

  const std::vector<bool> rx2_silent{true, true, false, true};
  for (std::size_t silent = 1; silent <= 2; ++silent) {
    ctl.update_epoch(f.input(rx2_silent));
    EXPECT_EQ(ctl.rx_health(2).state, RxLinkState::kStale) << silent;
    EXPECT_EQ(ctl.rx_health(2).silent_epochs, silent);
    EXPECT_TRUE(ctl.beamspot_for(2).has_value()) << "held column serves";
  }
  ctl.update_epoch(f.input(rx2_silent));
  EXPECT_EQ(ctl.rx_health(2).state, RxLinkState::kExpired);
  EXPECT_EQ(ctl.rx_health(2).reprobes, 1u);
  EXPECT_FALSE(ctl.beamspot_for(2).has_value()) << "expired RX released";
  EXPECT_EQ(ctl.rx_health(0).state, RxLinkState::kFresh);

  // One decoded report brings it straight back.
  ctl.update_epoch(f.input());
  EXPECT_EQ(ctl.rx_health(2).state, RxLinkState::kFresh);
  EXPECT_EQ(ctl.rx_health(2).silent_epochs, 0u);
  EXPECT_TRUE(ctl.beamspot_for(2).has_value());
  EXPECT_EQ(ctl.watchdog_holds(), 0u);
}

TEST(Degradation, ReprobeBackoffDoublesUpToCap) {
  Fixture f;
  Controller ctl{f.config(/*hold_epochs=*/0, /*backoff_max_epochs=*/4)};
  ctl.update_epoch(f.input());

  // RX 0 never reports again. Each retry waits the current backoff
  // before the next one, and the backoff doubles 1 -> 2 -> 4, then stays.
  const std::vector<bool> rx0_silent{false, true, true, true};
  std::vector<std::pair<std::size_t, std::size_t>> retries;  // epoch, backoff
  std::uint64_t seen = 0;
  for (std::size_t epoch = 1; epoch <= 16; ++epoch) {
    ctl.update_epoch(f.input(rx0_silent));
    const RxHealth& health = ctl.rx_health(0);
    EXPECT_EQ(health.state, RxLinkState::kExpired);
    if (health.reprobes != seen) {
      seen = health.reprobes;
      retries.emplace_back(epoch, health.backoff_epochs);
    }
  }
  const std::vector<std::pair<std::size_t, std::size_t>> expected{
      {1, 1}, {3, 2}, {6, 4}, {11, 4}, {16, 4}};
  EXPECT_EQ(retries, expected);
}

TEST(Degradation, WatchdogHoldsOnOverrun) {
  Fixture f;
  Controller ctl{f.config()};
  // No decision to hold yet: the first epoch decides despite the overrun.
  ctl.update_epoch(f.input({}, {}, /*overrun=*/true));
  EXPECT_EQ(ctl.watchdog_holds(), 0u);
  const auto spots = ctl.beamspots();
  const auto power_w = ctl.power_used_w();
  ASSERT_FALSE(spots.empty());

  // An overrun epoch keeps the last-good decision even though the
  // measurements changed completely.
  EpochInput garbage = f.input({}, {}, /*overrun=*/true);
  for (std::size_t j = 0; j < garbage.measured.num_tx(); ++j) {
    for (std::size_t k = 0; k < garbage.measured.num_rx(); ++k) {
      garbage.measured.set_gain(j, k, j == 0 ? 1e-6 : 0.0);
    }
  }
  ctl.update_epoch(garbage);
  EXPECT_EQ(ctl.watchdog_holds(), 1u);
  ASSERT_EQ(ctl.beamspots().size(), spots.size());
  for (std::size_t s = 0; s < spots.size(); ++s) {
    EXPECT_EQ(ctl.beamspots()[s].txs, spots[s].txs);
    EXPECT_EQ(ctl.beamspots()[s].leader, spots[s].leader);
  }
  EXPECT_EQ(ctl.power_used_w(), power_w);

  // A fully silent uplink holds too.
  ctl.update_epoch(f.input(std::vector<bool>(4, false)));
  EXPECT_EQ(ctl.watchdog_holds(), 2u);
}

TEST(Degradation, LeaderReelectedWhenLeadingTxDies) {
  Fixture f;
  Controller ctl{f.config()};
  ctl.update_epoch(f.input());
  const auto spots = ctl.beamspots();
  const auto multi = std::find_if(spots.begin(), spots.end(),
                                  [](const Beamspot& s) {
                                    return s.txs.size() >= 2;
                                  });
  ASSERT_NE(multi, spots.end());
  const std::size_t rx = multi->rx;
  const std::size_t old_leader = multi->leader;

  // The leader dies during a held epoch: the held beamspot drops it and
  // hands the pilot to the survivor with the best measured channel.
  std::vector<bool> dead(f.h.num_tx(), false);
  dead[old_leader] = true;
  ctl.update_epoch(f.input({}, dead, /*overrun=*/true));
  EXPECT_EQ(ctl.watchdog_holds(), 1u);
  EXPECT_EQ(ctl.leader_reelections(), 1u);

  const auto spot = ctl.beamspot_for(rx);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(std::count(spot->txs.begin(), spot->txs.end(), old_leader), 0);
  EXPECT_EQ(ctl.allocation().swing(old_leader, rx), 0.0);
  std::size_t best = spot->txs.front();
  for (std::size_t tx : spot->txs) {
    if (f.h.gain(tx, rx) > f.h.gain(best, rx)) best = tx;
  }
  EXPECT_EQ(spot->leader, best);
  EXPECT_NE(spot->leader, old_leader);
}

}  // namespace
}  // namespace densevlc::core
