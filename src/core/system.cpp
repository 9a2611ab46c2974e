#include "core/system.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/simtime.hpp"
#include "mac/arq.hpp"
#include "mac/report.hpp"
#include "net/links.hpp"
#include "sync/nlos_sync.hpp"

namespace densevlc::core {
namespace {

ControllerConfig controller_config(const SystemConfig& cfg) {
  ControllerConfig cc;
  cc.kappa = cfg.kappa;
  cc.personalize_kappa = cfg.personalize_kappa;
  cc.power_budget_w = cfg.power_budget_w;
  cc.max_swing_a = cfg.max_swing_a;
  cc.link_budget = cfg.testbed.budget;
  cc.degradation = cfg.degradation;
  return cc;
}

// One beamspot's transmission in a slot: the RX it serves, the frame its
// TXs radiate, and the start offsets drawn for them.
struct SlotLane {
  std::size_t rx = 0;
  phy::MacFrame frame;
  std::vector<std::size_t> txs;
  std::vector<double> offsets;
};

// The lane of one beamspot: a data frame from the controller (src 0xC0)
// to the beamspot's RX, radiated by its TXs at `offsets`.
SlotLane data_lane(const Beamspot& spot, std::vector<std::uint8_t> payload,
                   std::vector<double> offsets) {
  return {spot.rx,
          {static_cast<std::uint16_t>(spot.rx), 0xC0,
           static_cast<std::uint16_t>(phy::Protocol::kData),
           std::move(payload)},
          spot.txs,
          std::move(offsets)};
}

// The PHY arguments of every lane of a slot. jobs[i] views servers[i],
// interferers[i] and lanes[i].frame, so the lanes must outlive it.
struct SlotJobs {
  std::vector<std::vector<ServingTx>> servers;
  std::vector<std::vector<InterfererGroup>> interferers;
  std::vector<JointTransmission::TransmitJob> jobs;
};

// The single place a slot's serving and interfering TXs are formed. Each
// lane is served by its own TXs with gains toward its own RX; every lane
// serving another RX interferes, with gains toward the victim RX. A TX
// always radiates the swing allocated toward its own lane's RX.
SlotJobs assemble_slot(std::span<const SlotLane> lanes,
                       const channel::ChannelMatrix& truth,
                       const channel::Allocation& allocation) {
  const auto txs_toward = [&](const SlotLane& lane, std::size_t rx) {
    std::vector<ServingTx> txs;
    for (std::size_t i = 0; i < lane.txs.size(); ++i) {
      const std::size_t tx = lane.txs[i];
      txs.push_back({tx, truth.gain(tx, rx), allocation.swing(tx, lane.rx),
                     lane.offsets[i]});
    }
    return txs;
  };
  SlotJobs slot;
  slot.servers.resize(lanes.size());
  slot.interferers.resize(lanes.size());
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    slot.servers[li] = txs_toward(lanes[li], lanes[li].rx);
    for (const SlotLane& other : lanes) {
      if (other.rx == lanes[li].rx) continue;
      slot.interferers[li].push_back({txs_toward(other, lanes[li].rx),
                                      other.frame});
    }
    slot.jobs.push_back({slot.servers[li], &lanes[li].frame,
                         slot.interferers[li], 0.0});
  }
  return slot;
}

// The MAC timeline shared by run() and run_arq(): the probe phase that
// opens every epoch (each TX's probe burst plus its 16-chip id), and one
// data slot for frames of `frame_payload_bytes` (airtime, guard period,
// Ethernet latency and 2 ms of controller headroom).
struct SlotTiming {
  double probe_phase_s = 0.0;
  double slot_s = 0.0;
};

SlotTiming slot_timing(const SystemConfig& cfg,
                       const JointTransmission& data_path, std::size_t num_tx,
                       std::size_t frame_payload_bytes) {
  phy::MacFrame sizing;  // airtime depends on the payload length only
  sizing.payload.assign(frame_payload_bytes, 0);
  const double airtime = data_path.frame_airtime_s(sizing);
  return {static_cast<double>(num_tx) * (cfg.mac.probe_chip_count + 16.0) /
              cfg.ook.chip_rate_hz,
          airtime + cfg.mac.guard_period_s + cfg.ethernet.base_latency_s +
              2e-3};
}

}  // namespace

DenseVlcSystem::DenseVlcSystem(
    const SystemConfig& cfg,
    std::vector<std::unique_ptr<geom::MobilityModel>> mobility)
    : cfg_{cfg},
      mobility_{std::move(mobility)},
      controller_{controller_config(cfg)},
      prober_{cfg.testbed.led, cfg.ook, cfg.frontend, cfg.max_swing_a},
      data_path_{cfg.testbed.led, cfg.ook, cfg.frontend},
      master_rng_{cfg.seed} {
  last_reports_.assign(mobility_.size(),
                       std::vector<double>(num_tx(), 0.0));

  // The NLOS sync characterization's stream is forked here, so every
  // later fork of master_rng_ keeps its position; the characterization
  // itself runs on first use (nlos_error_samples).
  if (cfg_.sync_mode == SyncMode::kNlosVlc) {
    nlos_seed_ = master_rng_.fork().seed();
  }
}

const std::vector<double>& DenseVlcSystem::nlos_error_samples() const {
  if (nlos_ready_ || cfg_.sync_mode != SyncMode::kNlosVlc) return nlos_errors_;
  nlos_ready_ = true;
  // Characterize the NLOS sync error once, for a representative adjacent
  // TX pair, and bootstrap per-frame offsets from the samples.
  sync::NlosSyncConfig nc;
  const double h = cfg_.testbed.grid.mount_height_m;
  nc.leader_pose = geom::ceiling_pose(1.25, 1.25, h);
  nc.follower_pose = geom::ceiling_pose(1.75, 1.25, h);
  nc.emitter = cfg_.testbed.emitter;
  nc.pd = cfg_.testbed.pd;
  nc.floor = cfg_.floor;
  nc.led = cfg_.testbed.led;
  nc.pilot_chip_rate_hz = cfg_.ook.chip_rate_hz;
  nc.swing_current_a = cfg_.max_swing_a;
  nc.frontend = cfg_.frontend;
  sync::NlosSynchronizer synchronizer{nc};
  Rng rng{nlos_seed_};
  for (std::size_t t = 0; t < 32; ++t) {
    const auto d = synchronizer.simulate_once(rng);
    if (d.detected && d.id_matches) {
      nlos_errors_.push_back(d.start_error_s);
    }
  }
  if (nlos_errors_.empty()) {
    // Pathological geometry (e.g. black floor): fall back to one ADC
    // sample of uncertainty so the system still runs, degraded.
    nlos_errors_.push_back(1.0 / cfg_.frontend.adc.sample_rate_hz);
  }
  return nlos_errors_;
}

DenseVlcSystem DenseVlcSystem::with_static_rxs(
    const SystemConfig& cfg, const std::vector<geom::Vec3>& positions) {
  std::vector<std::unique_ptr<geom::MobilityModel>> mobility;
  mobility.reserve(positions.size());
  for (const auto& p : positions) {
    mobility.push_back(std::make_unique<geom::StaticMobility>(p));
  }
  return DenseVlcSystem{cfg, std::move(mobility)};
}

channel::ChannelMatrix DenseVlcSystem::true_channel(double t_s) const {
  std::vector<geom::Vec3> positions;
  positions.reserve(mobility_.size());
  for (const auto& m : mobility_) positions.push_back(m->position(t_s));
  if (truth_cache_valid_ && truth_positions_.size() == positions.size()) {
    // Recompute only the columns of RXs that moved. rx_poses() uses the
    // x/y components alone, so z changes cannot dirty a column.
    std::vector<std::size_t> dirty;
    for (std::size_t k = 0; k < positions.size(); ++k) {
      if (positions[k].x != truth_positions_[k].x ||
          positions[k].y != truth_positions_[k].y) {
        dirty.push_back(k);
      }
    }
    if (!dirty.empty()) {
      cfg_.testbed.update_channel_for(truth_cache_, positions, dirty);
    }
  } else {
    truth_cache_ = cfg_.testbed.channel_for(positions);
    truth_cache_valid_ = true;
  }
  truth_positions_ = std::move(positions);
  return truth_cache_;
}

channel::ChannelMatrix DenseVlcSystem::faulted_channel(double t_s) const {
  auto h = true_channel(t_s);
  if (cfg_.faults.empty()) return h;
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    const double scale = cfg_.faults.tx_output_scale(j, t_s);
    if (scale == 1.0) continue;
    for (std::size_t k = 0; k < h.num_rx(); ++k) {
      h.set_gain(j, k, h.gain(j, k) * scale);
    }
  }
  return h;
}

std::size_t DenseVlcSystem::bbb_of(std::size_t tx_id) const {
  const std::size_t cols = cfg_.testbed.grid.cols;
  const std::size_t row = tx_id / cols;
  const std::size_t col = tx_id % cols;
  return (row / 2) * ((cols + 1) / 2) + (col / 2);
}

std::vector<double> DenseVlcSystem::draw_tx_offsets(const Beamspot& spot,
                                                    Rng& rng,
                                                    double t_s) const {
  // Offsets are shared per BBB: four TXs hang off one PRU.
  std::vector<double> offsets(spot.txs.size(), 0.0);
  std::vector<std::size_t> bbbs(spot.txs.size());
  for (std::size_t i = 0; i < spot.txs.size(); ++i) {
    bbbs[i] = bbb_of(spot.txs[i]);
  }
  const std::size_t leader_bbb = bbb_of(spot.leader);

  // Draw one offset per distinct BBB.
  std::vector<std::pair<std::size_t, double>> bbb_offsets;
  auto offset_for_bbb = [&](std::size_t bbb) -> double {
    for (const auto& [b, o] : bbb_offsets) {
      if (b == bbb) return o;
    }
    double drawn = 0.0;
    switch (cfg_.sync_mode) {
      case SyncMode::kNone:
        // The TX free-runs on multicast arrival.
        drawn = sync::streaming_start_offset_s(cfg_.timesync, rng);
        break;
      case SyncMode::kNtpPtp:
        drawn = sync::ntp_ptp_offset_s(cfg_.timesync, rng);
        break;
      case SyncMode::kNlosVlc:
        if (bbb == leader_bbb) {
          drawn = 0.0;  // the leader defines the timeline
        } else if (cfg_.faults.sync_pilot_lost(t_s)) {
          // The follower never saw the pilot: it free-runs on multicast
          // arrival, i.e. the unsynchronized spread of SyncMode::kNone.
          drawn = sync::streaming_start_offset_s(cfg_.timesync, rng);
        } else {
          const std::vector<double>& errors = nlos_error_samples();
          const auto idx = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(errors.size()) - 1));
          drawn = errors[idx];
        }
        break;
    }
    bbb_offsets.emplace_back(bbb, drawn);
    return drawn;
  };

  for (std::size_t i = 0; i < spot.txs.size(); ++i) {
    offsets[i] = offset_for_bbb(bbbs[i]);
  }
  return offsets;
}

void DenseVlcSystem::measure_and_decide(double t_s, Rng& rng) {
  const auto truth = faulted_channel(t_s);
  // With incremental probing on, only RX columns whose physical channel
  // changed since the previous sweep (movement, blockage, TX fault
  // scaling) are re-probed; clean columns keep their last measurement.
  // Either path consumes exactly one fork of `rng`, so the draws after
  // the sweep (WiFi report loss, ...) are identical in both modes.
  channel::ChannelMatrix measured;
  if (cfg_.incremental_probing) {
    if (have_probe_cache_ && last_probe_truth_.num_tx() == truth.num_tx() &&
        last_probe_truth_.num_rx() == truth.num_rx()) {
      std::vector<bool> dirty(truth.num_rx(), false);
      for (std::size_t k = 0; k < truth.num_rx(); ++k) {
        for (std::size_t j = 0; j < truth.num_tx(); ++j) {
          if (truth.gain(j, k) != last_probe_truth_.gain(j, k)) {
            dirty[k] = true;
            break;
          }
        }
      }
      measured =
          prober_.probe_matrix_incremental(truth, rng, dirty, last_measured_);
    } else {
      measured = prober_.probe_matrix(truth, rng);
    }
    last_probe_truth_ = truth;
    last_measured_ = measured;
    have_probe_cache_ = true;
  } else {
    measured = prober_.probe_matrix(truth, rng);
  }

  // Each RX serializes a quantized channel report and sends it over the
  // lossy WiFi uplink; the controller decodes what arrives. A lost
  // report leaves the controller with the previous epoch's column.
  // Injected faults add to the random loss: a dropped-out RX never
  // transmits, and a report-loss burst swallows the whole uplink. The
  // random loss draw always happens first so a fault-free schedule
  // reproduces the pre-fault byte streams exactly.
  std::vector<bool> fresh(num_rx(), false);
  for (std::size_t k = 0; k < num_rx(); ++k) {
    mac::ChannelReport report;
    report.rx_id = static_cast<std::uint16_t>(k);
    report.epoch = epoch_counter_;
    report.gains.reserve(num_tx());
    for (std::size_t j = 0; j < num_tx(); ++j) {
      report.gains.push_back(measured.gain(j, k));
    }
    const auto wire = mac::encode_report(report);

    if (rng.bernoulli(cfg_.wifi.loss_probability)) continue;  // lost
    if (cfg_.faults.rx_down(k, t_s)) continue;
    if (cfg_.faults.reports_blocked(t_s)) continue;
    const auto decoded = mac::decode_report(wire);
    if (!decoded || decoded->gains.size() != num_tx()) continue;
    for (std::size_t j = 0; j < num_tx(); ++j) {
      last_reports_[k][j] = decoded->gains[j];
    }
    fresh[k] = true;
  }
  ++epoch_counter_;

  EpochInput input;
  input.measured = channel::ChannelMatrix{
      num_tx(), num_rx(), std::vector<double>(num_tx() * num_rx(), 0.0)};
  for (std::size_t j = 0; j < num_tx(); ++j) {
    for (std::size_t k = 0; k < num_rx(); ++k) {
      input.measured.set_gain(j, k, last_reports_[k][j]);
    }
  }
  input.fresh = std::move(fresh);
  // Dead drivers announce themselves over the Ethernet control plane
  // (BBB heartbeats), so the controller can exclude them immediately.
  if (!cfg_.faults.empty()) {
    input.dead_tx.assign(num_tx(), false);
    for (std::size_t j = 0; j < num_tx(); ++j) {
      input.dead_tx[j] = cfg_.faults.tx_dead(j, t_s);
    }
    input.overrun = cfg_.faults.epoch_overrun(t_s);
  }
  controller_.update_epoch(input);
}

EpochReport DenseVlcSystem::run_epoch_analytic(double t_s) {
  Rng rng = master_rng_.fork();
  measure_and_decide(t_s, rng);
  EpochReport report;
  report.throughput_bps = controller_.expected_throughput(true_channel(t_s));
  report.power_used_w = controller_.power_used_w();
  report.beamspots = controller_.beamspots();
  for (const auto& spot : report.beamspots) {
    report.txs_assigned += spot.txs.size();
  }
  return report;
}

RunReport DenseVlcSystem::run(double duration_s, std::size_t payload_bytes) {
  const auto epochs = static_cast<std::size_t>(
      std::ceil(duration_s / cfg_.mac.epoch_period_s));
  RunReport report{std::vector<RxStats>(num_rx()), epochs, duration_s};
  Rng rng = master_rng_.fork();
  Rng ethernet = rng.fork();
  Rng wifi = rng.fork();
  Rng data_rng = rng.fork();

  // Fixed payload content (deterministic; receivers verify equality).
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 13);
  }
  const SlotTiming timing =
      slot_timing(cfg_, data_path_, num_tx(), payload_bytes);
  // ACKs still in flight 1 s after the run are not counted.
  const SimTime ack_deadline = SimTime::from_seconds(duration_s + 1.0);
  JointTransmission::TransmitBatchScratch phy_batch;  // reused by every slot

  for (std::size_t e = 0; e < epochs; ++e) {
    const double epoch_start =
        static_cast<double>(e) * cfg_.mac.epoch_period_s;
    const double epoch_end =
        std::min(duration_s, epoch_start + cfg_.mac.epoch_period_s);
    measure_and_decide(epoch_start, data_rng);
    for (double t = epoch_start + timing.probe_phase_s;
         t + timing.slot_s <= epoch_end; t += timing.slot_s) {
      // The controller multicasts the slot's frames over Ethernet at `t`;
      // the TXs radiate them when the multicast lands.
      const double latency = net::draw_latency(cfg_.ethernet, ethernet);
      DVLC_EXPECT(latency < timing.slot_s,
                  "Ethernet latency must land each slot within its period");
      const SimTime now =
          SimTime::from_seconds(t) + SimTime::from_seconds(latency);
      const double now_s = now.seconds();

      std::vector<SlotLane> lanes;
      for (const auto& spot : controller_.beamspots()) {
        lanes.push_back(data_lane(spot, payload,
                                  draw_tx_offsets(spot, data_rng, now_s)));
      }
      const SlotJobs slot_jobs = assemble_slot(lanes, faulted_channel(now_s),
                                               controller_.allocation());
      std::vector<TransmissionOutcome> outcomes(lanes.size());
      data_path_.transmit_batch(slot_jobs.jobs, data_rng, outcomes, phy_batch);

      for (std::size_t li = 0; li < lanes.size(); ++li) {
        RxStats& stats = report.rx[lanes[li].rx];
        ++stats.frames_sent;
        if (!outcomes[li].delivered ||
            cfg_.faults.rx_down(lanes[li].rx, now_s)) {
          continue;
        }
        ++stats.frames_delivered;
        stats.payload_bits_delivered += payload_bytes * 8;
        // The MAC ACK rides the lossy WiFi uplink; stop-and-wait recovery
        // lives in run_arq().
        if (wifi.bernoulli(cfg_.wifi.loss_probability)) continue;
        const SimTime ack_at =
            now + SimTime::from_seconds(net::draw_latency(cfg_.wifi, wifi));
        if (ack_at <= ack_deadline) ++stats.acks_received;
      }
    }
  }
  return report;
}

DenseVlcSystem::ArqReport DenseVlcSystem::run_arq(
    double duration_s, std::size_t payload_bytes,
    std::size_t segments_per_rx, std::size_t max_attempts) {
  ArqReport report;
  report.rx.resize(num_rx());
  report.duration_s = duration_s;

  Rng rng = master_rng_.fork();

  // Offer every RX its workload up front.
  std::vector<mac::ArqTransmitter> senders;
  std::vector<mac::ArqReceiver> receivers(num_rx());
  for (std::size_t k = 0; k < num_rx(); ++k) {
    senders.emplace_back(max_attempts);
    for (std::size_t s = 0; s < segments_per_rx; ++s) {
      std::vector<std::uint8_t> data(payload_bytes);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i + s * 31 + k * 7);
      }
      senders[k].enqueue(std::move(data));
    }
    report.rx[k].segments_offered = segments_per_rx;
  }

  // Slot sizing: ARQ payloads carry one extra sequence byte.
  const SlotTiming timing =
      slot_timing(cfg_, data_path_, num_tx(), payload_bytes + 1);
  // Reused by every slot's PHY pass for the whole run.
  JointTransmission::TransmitBatchScratch phy_batch;
  std::vector<Rng> noise;
  std::vector<TransmissionOutcome> outcomes;
  // Per RX, whether its last transmission was delivered: the prediction
  // for its next one.
  std::vector<bool> delivered_last(num_rx(), true);

  double t = 0.0;
  double next_epoch = 0.0;
  while (t + timing.slot_s <= duration_s) {
    if (t >= next_epoch) {
      measure_and_decide(t, rng);
      next_epoch += cfg_.mac.epoch_period_s;
      t += timing.probe_phase_s;
      if (t + timing.slot_s > duration_s) break;
    }

    // Collect this slot's transmissions (one per backlogged beamspot).
    std::vector<SlotLane> lanes;
    for (const auto& spot : controller_.beamspots()) {
      const auto segment = senders[spot.rx].next_segment();
      if (!segment) continue;
      lanes.push_back(data_lane(spot, mac::encode_segment(*segment),
                                draw_tx_offsets(spot, rng, t)));
    }
    if (lanes.empty()) {
      bool anything_left = false;
      for (const auto& sender : senders) {
        anything_left = anything_left || sender.backlog() > 0;
      }
      if (!anything_left) break;  // workload finished
      t += timing.slot_s;
      continue;
    }

    // Lane by lane in slot order, a transmission takes its noise fork
    // from `rng` and, when delivered to an up RX, its WiFi-ACK draw. The
    // batch runs the lanes at once on streams forked from a copy of `rng`
    // that predicts each lane to fare as its RX's last transmission did.
    // A lane commits only while its real fork's seed is the seed its
    // stream came from, which makes its outcome exact whatever the
    // prediction; the first mismatch re-runs the rest of the slot. With a
    // lossless uplink the ACK draws take nothing and nothing is re-run.
    const SlotJobs slot_jobs = assemble_slot(lanes, faulted_channel(t),
                                             controller_.allocation());
    const std::size_t n = lanes.size();
    if (noise.size() < n) noise.resize(n, Rng{0});
    outcomes.resize(n);
    for (std::size_t first = 0; first < n;) {
      Rng speculative = rng;
      for (std::size_t li = first; li < n; ++li) {
        if (slot_jobs.jobs[li].servers.empty()) continue;  // never delivered
        noise[li] = speculative.fork();
        if (delivered_last[lanes[li].rx] &&
            !cfg_.faults.rx_down(lanes[li].rx, t)) {
          (void)speculative.bernoulli(cfg_.wifi.loss_probability);
        }
      }
      const std::size_t count = n - first;
      data_path_.transmit_batch(
          std::span{slot_jobs.jobs}.subspan(first),
          std::span<const Rng>{noise}.subspan(first, count),
          std::span{outcomes}.subspan(first, count), phy_batch);

      std::size_t li = first;
      for (; li < n; ++li) {
        if (!slot_jobs.jobs[li].servers.empty()) {
          Rng after = rng;
          if (after.fork().seed() != noise[li].seed()) break;
          rng = after;
        }
        const SlotLane& lane = lanes[li];
        ++report.rx[lane.rx].transmissions;
        delivered_last[lane.rx] = outcomes[li].delivered;
        bool acked = false;
        if (outcomes[li].delivered && !cfg_.faults.rx_down(lane.rx, t)) {
          const auto decoded = mac::decode_segment(lane.frame.payload);
          const auto rx_outcome = receivers[lane.rx].on_segment(*decoded);
          if (!rx_outcome.deliver_to_app) {
            ++report.rx[lane.rx].duplicates;
          }
          // The ACK rides the lossy WiFi uplink.
          if (!rng.bernoulli(cfg_.wifi.loss_probability)) {
            acked = senders[lane.rx].on_ack(rx_outcome.ack_seq);
          }
        }
        if (!acked) {
          // A give-up is the transmitter's typed notice that the retry
          // budget is gone; the controller tallies delivery failures here.
          if (senders[lane.rx].on_timeout()) {
            ++report.rx[lane.rx].give_ups;
          }
        }
      }
      first = li;
    }
    t += timing.slot_s;
  }

  for (std::size_t k = 0; k < num_rx(); ++k) {
    report.rx[k].segments_delivered = senders[k].delivered();
    report.rx[k].segments_dropped = senders[k].dropped();
    DVLC_ASSERT(report.rx[k].give_ups == report.rx[k].segments_dropped,
                "every dropped segment must surface one give-up notice");
  }
  return report;
}

}  // namespace densevlc::core
