#include "net/queueing.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace densevlc::net {

bool FifoQueue::arrive(double t_s) {
  // Work off anything that would have departed by now.
  if (server_free_at_ < t_s) server_free_at_ = t_s;
  // Backlog is implicit in server_free_at_; track for capacity checks.
  const double queue_ahead_s = server_free_at_ - t_s;
  backlog_ = static_cast<std::size_t>(
      std::ceil(queue_ahead_s / service_time_s_));
  if (backlog_ >= capacity_) {
    ++dropped_;
    return false;
  }
  const double departure = server_free_at_ + service_time_s_;
  sojourns_.push_back(departure - t_s);
  server_free_at_ = departure;
  return true;
}

UplinkLoadReport analyze_uplink(const UplinkTraffic& traffic,
                                std::size_t num_rx, double duration_s,
                                std::uint64_t seed) {
  Rng rng{seed};

  // Generate Poisson arrivals for each source and class, then merge.
  struct Arrival {
    double t;
    double airtime;
  };
  std::vector<Arrival> arrivals;
  auto add_stream = [&](double rate_hz, double airtime_s) {
    if (rate_hz <= 0.0) return;
    double t = 0.0;
    while (true) {
      t += rng.exponential() / rate_hz;
      if (t >= duration_s) break;
      arrivals.push_back({t, airtime_s});
    }
  };
  for (std::size_t k = 0; k < num_rx; ++k) {
    add_stream(traffic.ack_rate_hz, traffic.ack_airtime_s);
    add_stream(traffic.report_rate_hz, traffic.report_airtime_s);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.t < b.t; });

  // Serve through a queue whose service time is per-frame airtime; use
  // the mean airtime as the FIFO's nominal service for capacity math,
  // but serve each frame for its own airtime.
  UplinkLoadReport report;
  double busy_s = 0.0;
  double server_free_at = 0.0;
  std::vector<double> sojourns;
  std::size_t dropped = 0;
  const std::size_t capacity = 64;
  for (const auto& a : arrivals) {
    if (server_free_at < a.t) server_free_at = a.t;
    const double backlog_s = server_free_at - a.t;
    if (backlog_s > static_cast<double>(capacity) * a.airtime) {
      ++dropped;
      continue;
    }
    const double departure = server_free_at + a.airtime;
    sojourns.push_back(departure - a.t);
    server_free_at = departure;
    busy_s += a.airtime;
  }

  report.offered_load = duration_s > 0.0 ? busy_s / duration_s : 0.0;
  report.mean_sojourn_s = stats::mean(sojourns);
  report.p99_sojourn_s = stats::quantile(sojourns, 0.99);
  report.dropped = dropped;
  report.served = sojourns.size();
  return report;
}

}  // namespace densevlc::net
