// Control-plane network models (paper Sec. 7.2).
//
// The controller pushes frames to the TXs over Ethernet multicast; RXs
// acknowledge and report channel measurements back over a WiFi uplink
// (the BBB Wireless' built-in radio). Neither path needs bit-level
// modeling — the MAC only cares about delivery, latency and loss — so
// both are discrete-event link models with configurable distributions.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/simtime.hpp"
#include "common/event_queue.hpp"

namespace densevlc::net {

/// Latency/loss parameters of a link.
struct LinkConfig {
  double base_latency_s = 100e-6;   ///< fixed propagation + stack time
  double jitter_mean_s = 20e-6;     ///< exponential jitter mean
  double loss_probability = 0.0;    ///< independent per-delivery loss
};

/// Per-link delivery counters, kept by every SimLink so tests can
/// assert loss and latency behaviour instead of ignoring send()'s
/// verdict.
struct LinkStats {
  std::uint64_t sent = 0;       ///< send() calls
  std::uint64_t lost = 0;       ///< loss draws that ate the packet
  std::uint64_t delivered = 0;  ///< handler invocations so far
  double total_latency_s = 0.0; ///< summed over delivered packets
  double max_latency_s = 0.0;

  /// Packets scheduled but not yet delivered by the simulator.
  std::uint64_t in_flight() const { return sent - lost - delivered; }
  double mean_latency_s() const {
    return delivered > 0 ? total_latency_s / static_cast<double>(delivered)
                         : 0.0;
  }
};

/// Point-to-point link: delivers byte payloads to a handler with
/// randomized latency; lost deliveries simply never arrive.
class SimLink {
 public:
  using Handler = std::function<void(const std::vector<std::uint8_t>&)>;

  SimLink(Simulator& simulator, const LinkConfig& cfg, Rng rng)
      : sim_{&simulator}, cfg_{cfg}, rng_{rng} {}

  /// Queues a delivery. Returns false if the draw decided the packet is
  /// lost (the handler will never fire for it). The link must outlive
  /// the simulator events it schedules (it tallies the delivery).
  [[nodiscard]] bool send(std::vector<std::uint8_t> payload, Handler handler);

  /// One latency draw [s] (exposed for tests).
  double draw_latency();

  const LinkConfig& config() const { return cfg_; }

  /// Counters.
  const LinkStats& stats() const { return stats_; }
  std::uint64_t sent() const { return stats_.sent; }
  std::uint64_t lost() const { return stats_.lost; }

 private:
  Simulator* sim_;
  LinkConfig cfg_;
  Rng rng_;
  LinkStats stats_;
};

/// Ethernet multicast from the controller to all subscribed TXs: one
/// send() fans out to every subscriber with independent latency draws
/// (switch queuing differs per port).
class EthernetMulticast {
 public:
  using Handler =
      std::function<void(std::size_t subscriber_id,
                         const std::vector<std::uint8_t>&)>;

  EthernetMulticast(Simulator& simulator, const LinkConfig& cfg,
                    Rng rng)
      : sim_{&simulator}, cfg_{cfg}, rng_{rng} {}

  /// Registers a subscriber; returns its id.
  std::size_t subscribe(Handler handler);

  /// Multicasts a payload to every subscriber.
  void send(const std::vector<std::uint8_t>& payload);

  std::size_t subscriber_count() const { return handlers_.size(); }

  /// Aggregate counters over all subscriber deliveries.
  const LinkStats& stats() const { return stats_; }

 private:
  Simulator* sim_;
  LinkConfig cfg_;
  Rng rng_;
  std::vector<Handler> handlers_;
  LinkStats stats_;
};

}  // namespace densevlc::net
