// Discrete-event simulation engine.
//
// A minimal, deterministic event loop: callbacks are executed in
// timestamp order, ties broken by scheduling order (FIFO), which makes
// runs bit-reproducible. The network link models (net::SimLink,
// net::EthernetMulticast) run on this engine; the system loops step their
// slots directly and do not.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/simtime.hpp"

namespace densevlc {

/// The event-driven simulator clock and dispatcher.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `when`. Scheduling in the past
  /// clamps to now() (executes next). Returns an id usable with cancel().
  std::uint64_t schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` to run `delay` after now().
  std::uint64_t schedule_in(SimTime delay, Callback cb);

  /// Cancels a pending event. Cancelling an already-run or unknown id is
  /// a no-op. Returns true if the event was pending.
  bool cancel(std::uint64_t id);

  /// Runs events until the queue empties or `limit` is exceeded.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime limit);

  /// Runs until the queue is exhausted (use with care — event chains that
  /// reschedule themselves never finish). Returns events executed.
  std::size_t run_all(std::size_t max_events = 10'000'000);

  /// Number of pending events.
  std::size_t pending() const { return queue_.size() - cancelled_count_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Callbacks parked by id; erased on execution or cancel.
  std::vector<std::pair<std::uint64_t, Callback>> callbacks_;
  std::size_t cancelled_count_ = 0;

  Callback* find_callback(std::uint64_t id);
  void erase_callback(std::uint64_t id);
};

}  // namespace densevlc
