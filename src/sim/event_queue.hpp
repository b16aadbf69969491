#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace anonpath::sim {

/// Simulated time in seconds.
using sim_time = double;

/// What a scheduled event does when it fires. The meaning of the record's
/// `msg`, `a` and `b` fields depends on the kind.
enum class event_kind : std::uint8_t {
  hop_arrival,       ///< message `msg` reaches `b` over the wire from `a`
  relay_forward,     ///< relay `a` puts message `msg` on the wire to `b`
  workload_arrival,  ///< sender `a` submits message `msg`
  retry_timer,       ///< original `msg` of sender `a` times out (`b` retries)
};

/// One scheduled event: a plain record, no closure. `seq` is the insertion
/// counter that breaks timestamp ties.
struct sim_event {
  sim_time at = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t msg = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  event_kind kind = event_kind::hop_arrival;
};

/// Minimal discrete-event scheduler over typed records in a flat binary
/// heap: events fire in timestamp order; ties break by insertion order
/// (FIFO), which keeps runs deterministic. The caller's handler interprets
/// each record.
class event_queue {
 public:
  /// Schedules an event at absolute time `at` (>= now()).
  void schedule_at(sim_time at, event_kind kind, std::uint64_t msg,
                   std::uint32_t a = 0, std::uint32_t b = 0);

  /// Schedules an event `delay` seconds from now. Precondition: delay >= 0.
  void schedule_in(sim_time delay, event_kind kind, std::uint64_t msg,
                   std::uint32_t a = 0, std::uint32_t b = 0);

  /// Pops the earliest pending event, advances the clock to it and hands it
  /// to `handle`. Returns false when the queue is empty.
  template <class Handler>
  bool run_next(Handler&& handle) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later{});
    const sim_event e = heap_.back();
    heap_.pop_back();
    now_ = e.at;
    ++executed_;
    handle(e);
    return true;
  }

  /// Drains the queue through `handle`; stops (and returns false) if
  /// `max_events` fire without exhausting it — a runaway-protocol guard.
  template <class Handler>
  bool run_until_empty(Handler&& handle,
                       std::uint64_t max_events = 100'000'000) {
    std::uint64_t fired = 0;
    while (run_next(handle)) {
      if (++fired >= max_events && !heap_.empty()) return false;
    }
    return true;
  }

  [[nodiscard]] sim_time now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Events executed since construction (deterministic per run; feeds the
  /// `sim.events_executed` metric).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct later {
    bool operator()(const sim_event& x, const sim_event& y) const noexcept {
      if (x.at != y.at) return x.at > y.at;
      return x.seq > y.seq;
    }
  };
  std::vector<sim_event> heap_;
  sim_time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace anonpath::sim
