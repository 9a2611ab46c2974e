#include "core/controller.hpp"

#include <algorithm>

#include "alloc/adaptive_kappa.hpp"
#include "common/contracts.hpp"

namespace densevlc::core {

std::size_t Controller::update_channel(
    const channel::ChannelMatrix& measured) {
  EpochInput input;
  input.measured = measured;
  return update_epoch(input);
}

bool Controller::age_reports(const std::vector<bool>& fresh,
                             std::size_t num_rx) {
  if (health_.size() < num_rx) {
    health_.resize(num_rx);
    for (auto& h : health_) {
      h.backoff_epochs = std::max<std::size_t>(
          1, cfg_.degradation.backoff_initial_epochs);
    }
  }
  bool any_fresh = false;
  for (std::size_t rx = 0; rx < num_rx; ++rx) {
    auto& h = health_[rx];
    const bool is_fresh = fresh.empty() || fresh[rx];
    if (is_fresh) {
      h.state = RxLinkState::kFresh;
      h.silent_epochs = 0;
      h.backoff_epochs = std::max<std::size_t>(
          1, cfg_.degradation.backoff_initial_epochs);
      h.epochs_until_reprobe = 0;
      any_fresh = true;
      continue;
    }
    ++h.silent_epochs;
    if (h.silent_epochs <= cfg_.degradation.hold_epochs) {
      h.state = RxLinkState::kStale;
      continue;
    }
    if (h.state != RxLinkState::kExpired) {
      // Entering expiry: retry immediately, then back off exponentially.
      h.state = RxLinkState::kExpired;
      ++h.reprobes;
      h.epochs_until_reprobe = h.backoff_epochs;
    } else if (h.epochs_until_reprobe == 0) {
      ++h.reprobes;
      h.backoff_epochs = std::min(2 * h.backoff_epochs,
                                  cfg_.degradation.backoff_max_epochs);
      h.epochs_until_reprobe = h.backoff_epochs;
    } else {
      --h.epochs_until_reprobe;
    }
  }
  return any_fresh;
}

void Controller::prune_dead_txs(const std::vector<bool>& dead_tx) {
  if (dead_tx.empty()) return;
  const auto is_dead = [&](std::size_t tx) {
    return tx < dead_tx.size() && dead_tx[tx];
  };
  std::vector<Beamspot> surviving;
  for (auto& spot : beamspots_) {
    const std::size_t old_leader = spot.leader;
    bool leader_died = false;
    std::vector<std::size_t> alive;
    for (std::size_t tx : spot.txs) {
      if (is_dead(tx)) {
        if (tx < alloc_.num_tx()) alloc_.set_swing(tx, spot.rx, 0.0);
        leader_died = leader_died || tx == old_leader;
      } else {
        alive.push_back(tx);
      }
    }
    if (alive.empty()) continue;  // beamspot dissolved
    spot.txs = std::move(alive);
    if (leader_died) {
      // Re-elect: the survivor with the best channel to the served RX,
      // judged by the measurements the held decision was based on.
      spot.leader = spot.txs.front();
      if (last_view_.num_tx() > 0) {
        for (std::size_t tx : spot.txs) {
          if (last_view_.gain(tx, spot.rx) >
              last_view_.gain(spot.leader, spot.rx)) {
            spot.leader = tx;
          }
        }
      }
      ++leader_reelections_;
    }
    surviving.push_back(std::move(spot));
  }
  beamspots_ = std::move(surviving);
  power_used_w_ =
      channel::total_comm_power(alloc_, cfg_.link_budget).value();
}

std::size_t Controller::update_epoch(const EpochInput& input) {
  const std::size_t num_rx = input.measured.num_rx();
  const std::size_t num_tx = input.measured.num_tx();
  DVLC_EXPECT(input.fresh.empty() || input.fresh.size() == num_rx,
              "fresh flags must match the RX count");
  DVLC_EXPECT(input.dead_tx.empty() || input.dead_tx.size() == num_tx,
              "dead-TX flags must match the TX count");

  const bool any_fresh = age_reports(input.fresh, num_rx);

  // Watchdog: when the decision deadline was missed, or the uplink went
  // completely silent, re-deciding on garbage only thrashes the TXs —
  // hold the last-good allocation (minus any TXs that died since).
  const bool hold = have_decision_ && (input.overrun ||
                                       (!any_fresh && !input.fresh.empty()));
  if (hold) {
    ++watchdog_holds_;
    prune_dead_txs(input.dead_tx);
    std::size_t assigned = 0;
    for (const auto& spot : beamspots_) assigned += spot.txs.size();
    return assigned;
  }

  // Working view: dead TXs and expired RXs are erased before the SJR
  // ranking, so power re-forms around the surviving hardware.
  channel::ChannelMatrix view = input.measured;
  if (!input.dead_tx.empty()) {
    for (std::size_t tx = 0; tx < num_tx; ++tx) {
      if (!input.dead_tx[tx]) continue;
      for (std::size_t rx = 0; rx < num_rx; ++rx) view.set_gain(tx, rx, 0.0);
    }
  }
  for (std::size_t rx = 0; rx < num_rx && rx < health_.size(); ++rx) {
    if (health_[rx].state != RxLinkState::kExpired) continue;
    for (std::size_t tx = 0; tx < num_tx; ++tx) view.set_gain(tx, rx, 0.0);
  }

  alloc::AssignmentOptions opts;
  opts.max_swing_a = cfg_.max_swing_a;
  opts.allow_partial_tail = false;  // Insight 2: binary swing in practice

  std::vector<alloc::RankedTx> ranking;
  if (cfg_.personalize_kappa) {
    alloc::AdaptiveKappaConfig acfg;
    acfg.initial_kappa = cfg_.kappa;
    acfg.max_rounds = 4;
    const auto personal = alloc::personalize_kappa(
        view, Watts{cfg_.power_budget_w}, cfg_.link_budget, opts, acfg);
    ranking = alloc::rank_transmitters_per_tx(view, personal.kappas);
  } else {
    ranking = alloc::rank_transmitters(view, cfg_.kappa);
  }
  const auto result =
      alloc::assign_by_ranking(ranking, view.num_tx(), view.num_rx(),
                               Watts{cfg_.power_budget_w}, cfg_.link_budget,
                               opts);
  alloc_ = result.allocation;
  power_used_w_ = result.power_used_w;

  // Group assigned TXs into beamspots, preserving rank order so the
  // first-listed TX is the best channel — it becomes the leader.
  beamspots_.clear();
  for (std::size_t rx = 0; rx < view.num_rx(); ++rx) {
    Beamspot spot;
    spot.rx = rx;
    for (const auto& entry : ranking) {
      if (entry.rx == rx && alloc_.swing(entry.tx, rx) > 0.0) {
        spot.txs.push_back(entry.tx);
      }
    }
    if (!spot.txs.empty()) {
      // The leader is the member with the best measured channel to the
      // served RX: its pilot reaches the co-serving neighbours strongest.
      spot.leader = spot.txs.front();
      for (std::size_t tx : spot.txs) {
        if (view.gain(tx, rx) > view.gain(spot.leader, rx)) {
          spot.leader = tx;
        }
      }
      beamspots_.push_back(std::move(spot));
    }
  }
  last_view_ = std::move(view);
  have_decision_ = true;
  return result.txs_assigned;
}

const RxHealth& Controller::rx_health(std::size_t rx) const {
  static const RxHealth kDefault{};
  return rx < health_.size() ? health_[rx] : kDefault;
}

std::optional<Beamspot> Controller::beamspot_for(std::size_t rx) const {
  for (const auto& spot : beamspots_) {
    if (spot.rx == rx) return spot;
  }
  return std::nullopt;
}

std::vector<double> Controller::expected_throughput(
    const channel::ChannelMatrix& truth) const {
  if (alloc_.num_tx() != truth.num_tx() ||
      alloc_.num_rx() != truth.num_rx()) {
    return std::vector<double>(truth.num_rx(), 0.0);
  }
  return channel::throughput_bps(truth, alloc_, cfg_.link_budget);
}

std::optional<phy::ControllerFrame> Controller::make_data_command(
    std::size_t rx, std::vector<std::uint8_t> payload,
    std::uint16_t src) const {
  const auto spot = beamspot_for(rx);
  if (!spot) return std::nullopt;
  phy::ControllerFrame cf;
  for (std::size_t tx : spot->txs) {
    if (tx < 64) cf.tx_mask |= (std::uint64_t{1} << tx);
  }
  cf.leading_tx = static_cast<std::uint8_t>(spot->leader);
  cf.frame.dst = static_cast<std::uint16_t>(rx);
  cf.frame.src = src;
  cf.frame.protocol = static_cast<std::uint16_t>(phy::Protocol::kData);
  cf.frame.payload = std::move(payload);
  return cf;
}

}  // namespace densevlc::core
