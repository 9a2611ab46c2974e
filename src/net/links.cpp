#include "net/links.hpp"

#include <algorithm>

namespace densevlc::net {

double SimLink::draw_latency() {
  return cfg_.base_latency_s + cfg_.jitter_mean_s * rng_.exponential();
}

bool SimLink::send(std::vector<std::uint8_t> payload, Handler handler) {
  ++stats_.sent;
  if (rng_.bernoulli(cfg_.loss_probability)) {
    ++stats_.lost;
    return false;
  }
  const double latency = draw_latency();
  sim_->schedule_in(SimTime::from_seconds(latency),
                    [this, latency, payload = std::move(payload),
                     handler = std::move(handler)] {
                      ++stats_.delivered;
                      stats_.total_latency_s += latency;
                      stats_.max_latency_s =
                          std::max(stats_.max_latency_s, latency);
                      handler(payload);
                    });
  return true;
}

std::size_t EthernetMulticast::subscribe(Handler handler) {
  handlers_.push_back(std::move(handler));
  return handlers_.size() - 1;
}

void EthernetMulticast::send(const std::vector<std::uint8_t>& payload) {
  for (std::size_t id = 0; id < handlers_.size(); ++id) {
    const double latency =
        cfg_.base_latency_s + cfg_.jitter_mean_s * rng_.exponential();
    ++stats_.sent;
    sim_->schedule_in(SimTime::from_seconds(latency),
                      [this, id, latency, payload] {
                        ++stats_.delivered;
                        stats_.total_latency_s += latency;
                        stats_.max_latency_s =
                            std::max(stats_.max_latency_s, latency);
                        handlers_[id](id, payload);
                      });
  }
}

}  // namespace densevlc::net
