// Uplink queueing analysis (paper Sec. 7.2: "uplink packets are usually
// smaller in quantity and size compared to downlink packets. Therefore,
// the WiFi link is not easily congested").
//
// A FIFO transmission queue with deterministic per-frame service time,
// fed by the MAC's ACK and channel-report traffic, verifies that claim
// quantitatively: for the paper's rates the offered load is a few
// percent of the WiFi link's capacity, so queueing delay stays near one
// service time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace densevlc::net {

/// A work-conserving FIFO queue with deterministic service.
class FifoQueue {
 public:
  /// `service_time_s` per frame; `capacity` frames buffered (arrivals
  /// beyond it are dropped and counted).
  FifoQueue(double service_time_s, std::size_t capacity)
      : service_time_s_{service_time_s}, capacity_{capacity} {}

  /// Offers a frame at absolute time `t_s`. Returns false when dropped.
  bool arrive(double t_s);

  /// Sojourn times (arrival to departure) of all served frames [s].
  const std::vector<double>& sojourn_times() const { return sojourns_; }

  std::size_t dropped() const { return dropped_; }
  std::size_t served() const { return sojourns_.size(); }

 private:
  double service_time_s_;
  std::size_t capacity_;
  double server_free_at_ = 0.0;
  std::size_t backlog_ = 0;
  std::size_t dropped_ = 0;
  std::vector<double> sojourns_;
};

/// Traffic description of one uplink source (per-RX ACKs + reports).
struct UplinkTraffic {
  double ack_rate_hz = 45.0;       ///< one per delivered frame
  double ack_airtime_s = 60e-6;    ///< tiny WiFi frame
  double report_rate_hz = 1.0;     ///< one per epoch
  double report_airtime_s = 250e-6;///< 76 B payload + WiFi overhead
};

/// Result of an offered-load analysis.
struct UplinkLoadReport {
  double offered_load = 0.0;   ///< utilization in [0, ...)
  double mean_sojourn_s = 0.0;
  double p99_sojourn_s = 0.0;
  std::size_t dropped = 0;
  std::size_t served = 0;
};

/// Simulates `duration_s` of uplink traffic from `num_rx` receivers
/// multiplexed onto one queue. Arrivals are Poisson per source
/// (deterministically seeded).
UplinkLoadReport analyze_uplink(const UplinkTraffic& traffic,
                                std::size_t num_rx, double duration_s,
                                std::uint64_t seed);

}  // namespace densevlc::net
