#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"
#include "tests/pre_change_reference.hpp"

namespace anonpath::sim {
namespace {

constexpr event_kind tag = event_kind::workload_arrival;

/// A handler that records the `msg` field of every event it runs.
struct recorder {
  std::vector<std::uint64_t>& order;
  void operator()(const sim_event& e) const { order.push_back(e.msg); }
};

void ignore(const sim_event&) {}

TEST(EventQueue, ExecutesInTimeOrder) {
  event_queue q;
  std::vector<std::uint64_t> order;
  q.schedule_at(3.0, tag, 3);
  q.schedule_at(1.0, tag, 1);
  q.schedule_at(2.0, tag, 2);
  EXPECT_TRUE(q.run_until_empty(recorder{order}));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakFifo) {
  event_queue q;
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < 5; ++i) q.schedule_at(1.0, tag, i);
  q.run_until_empty(recorder{order});
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RelativeSchedulingUsesCurrentTime) {
  event_queue q;
  double fired_at = -1;
  q.schedule_at(2.0, tag, 0);
  q.run_until_empty([&](const sim_event& e) {
    if (e.msg == 0) {
      q.schedule_in(0.5, tag, 1);
    } else {
      fired_at = q.now();
    }
  });
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  event_queue q;
  int count = 0;
  q.schedule_at(0.0, tag, 0);
  EXPECT_TRUE(q.run_until_empty([&](const sim_event&) {
    if (++count < 10) q.schedule_in(1.0, tag, 0);
  }));
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  event_queue q;
  EXPECT_FALSE(q.run_next(ignore));
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueue, RejectsPastScheduling) {
  event_queue q;
  q.schedule_at(5.0, tag, 0);
  q.run_next(ignore);
  EXPECT_THROW(q.schedule_at(4.0, tag, 0), contract_violation);
  EXPECT_THROW(q.schedule_in(-1.0, tag, 0), contract_violation);
}

TEST(EventQueue, RunawayGuardStops) {
  event_queue q;
  q.schedule_at(0.0, tag, 0);
  EXPECT_FALSE(q.run_until_empty(
      [&](const sim_event&) { q.schedule_in(0.1, tag, 0); }, 100));
}

TEST(EventQueue, PendingCount) {
  event_queue q;
  EXPECT_EQ(q.pending(), 0u);
  q.schedule_at(1.0, tag, 0);
  q.schedule_at(2.0, tag, 0);
  EXPECT_EQ(q.pending(), 2u);
  q.run_next(ignore);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RecordsReachTheHandlerIntact) {
  event_queue q;
  q.schedule_at(0.5, event_kind::retry_timer, 1ULL << 40, 7, 9);
  sim_event seen;
  EXPECT_TRUE(q.run_next([&](const sim_event& e) { seen = e; }));
  EXPECT_EQ(seen.kind, event_kind::retry_timer);
  EXPECT_EQ(seen.msg, 1ULL << 40);
  EXPECT_EQ(seen.a, 7u);
  EXPECT_EQ(seen.b, 9u);
  EXPECT_DOUBLE_EQ(seen.at, 0.5);
  EXPECT_EQ(q.executed(), 1u);
}

/// One randomized, tie-heavy schedule: `roots` events at times on a coarse
/// grid, each of which schedules one to three children at delays of 0, 0.25
/// or 0.5 s until `limit` events exist. What an event does is a function of
/// its tag (its scheduling rank), so two queues that run events in the same
/// order schedule the same children. Returns the (tag, time) firing order.
struct tie_schedule {
  std::uint64_t seed;
  std::uint64_t roots;
  std::uint64_t limit;

  [[nodiscard]] std::uint64_t bits(std::uint64_t id) const {
    std::uint64_t s = seed ^ (id * 0x9e3779b97f4a7c15ULL);
    return stats::splitmix64(s);
  }
  [[nodiscard]] double root_time(std::uint64_t id) const {
    return 0.5 * static_cast<double>(bits(id) % 4);
  }
  [[nodiscard]] double child_delay(std::uint64_t id, int child) const {
    return 0.25 * static_cast<double>((bits(id) >> (8 + 4 * child)) % 3);
  }
  [[nodiscard]] int children(std::uint64_t id) const {
    return 1 + static_cast<int>((bits(id) >> 4) % 3);
  }

  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> typed() const {
    event_queue q;
    std::vector<std::pair<std::uint64_t, double>> fired;
    std::uint64_t next_tag = 0;
    for (; next_tag < roots; ++next_tag)
      q.schedule_at(root_time(next_tag), tag, next_tag);
    EXPECT_TRUE(q.run_until_empty([&](const sim_event& e) {
      fired.emplace_back(e.msg, q.now());
      for (int c = 0; c < children(e.msg) && next_tag < limit; ++c)
        q.schedule_in(child_delay(e.msg, c), tag, next_tag++);
    }));
    EXPECT_EQ(q.executed(), fired.size());
    return fired;
  }

  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> closures() const {
    pre_change::closure_queue q;
    std::vector<std::pair<std::uint64_t, double>> fired;
    std::uint64_t next_tag = 0;
    std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
      fired.emplace_back(id, q.now());
      for (int c = 0; c < children(id) && next_tag < limit; ++c) {
        const std::uint64_t child = next_tag++;
        q.schedule_in(child_delay(id, c), [&, child] { fire(child); });
      }
    };
    for (; next_tag < roots; ++next_tag) {
      const std::uint64_t root = next_tag;
      q.schedule_at(root_time(root), [&, root] { fire(root); });
    }
    EXPECT_TRUE(q.run_until_empty());
    return fired;
  }
};

TEST(EventQueue, TieHeavyOrderMatchesTheClosureQueue) {
  // Most timestamps collide, and many events schedule children at zero
  // delay, so the (at, seq) tie-break decides nearly every pop: the flat
  // heap must fire exactly the sequence the closure queue fired.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const tie_schedule s{seed, 1 + seed % 17, 300 + 25 * seed};
    const auto typed = s.typed();
    EXPECT_EQ(typed, s.closures()) << "seed " << seed;
    EXPECT_EQ(typed.size(), s.limit) << "seed " << seed;
  }
}

}  // namespace
}  // namespace anonpath::sim
