#include "src/sim/event_queue.hpp"

#include "src/stats/contract.hpp"

namespace anonpath::sim {

void event_queue::schedule_at(sim_time at, event_kind kind, std::uint64_t msg,
                              std::uint32_t a, std::uint32_t b) {
  ANONPATH_EXPECTS(at >= now_);
  heap_.push_back(sim_event{at, seq_++, msg, a, b, kind});
  std::push_heap(heap_.begin(), heap_.end(), later{});
}

void event_queue::schedule_in(sim_time delay, event_kind kind,
                              std::uint64_t msg, std::uint32_t a,
                              std::uint32_t b) {
  ANONPATH_EXPECTS(delay >= 0.0);
  schedule_at(now_ + delay, kind, msg, a, b);
}

}  // namespace anonpath::sim
