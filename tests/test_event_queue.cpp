// Event-queue unit tests: the (time, kind, actor) strict total order,
// deterministic tie-breaking at equal times, and invariance of the pop
// sequence under insertion order — the property that keeps event-engine
// runs bit-reproducible regardless of how events happened to be pushed.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"

namespace bas::sim {
namespace {

std::vector<Event> drain(EventQueue& q) {
  std::vector<Event> out;
  while (!q.empty()) {
    out.push_back(q.pop());
  }
  return out;
}

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.kind == b.kind && a.actor == b.actor;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push({3.0, EventKind::kRelease, 0});
  q.push({1.0, EventKind::kRelease, 1});
  q.push({2.0, EventKind::kBatteryObs, -1});
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].time, 1.0);
  EXPECT_EQ(order[1].time, 2.0);
  EXPECT_EQ(order[2].time, 3.0);
}

TEST(EventQueue, EqualTimesBreakTiesByKindThenActor) {
  // At one instant: a completion dispatches before a release (the
  // finished node frees the processor before the new instance is
  // considered), releases order by graph id, and the battery
  // observation comes last.
  EventQueue q;
  q.push({5.0, EventKind::kRelease, 1});
  q.push({5.0, EventKind::kRelease, 2});
  q.push({5.0, EventKind::kRelease, 0});
  q.push({5.0, EventKind::kBatteryObs, -1});
  q.push({5.0, EventKind::kCompletion, 1});
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0].kind, EventKind::kCompletion);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(order[i].kind, EventKind::kRelease);
    EXPECT_EQ(order[i].actor, i - 1);
  }
  EXPECT_EQ(order[4].kind, EventKind::kBatteryObs);
}

TEST(EventQueue, PopSequenceInvariantUnderInsertionOrder) {
  // Every permutation of the same pending set drains identically: the
  // order is a strict total order, so the heap's internal layout can
  // never leak into the dispatch sequence.
  std::vector<Event> events = {
      {2.0, EventKind::kRelease, 0},    {2.0, EventKind::kRelease, 1},
      {2.0, EventKind::kCompletion, 0}, {1.5, EventKind::kBatteryObs, -1},
      {3.0, EventKind::kRelease, 2},    {2.0, EventKind::kBatteryObs, -1},
  };
  std::sort(events.begin(), events.end(), event_before);
  const std::vector<Event> reference = events;  // sorted == expected pops

  std::vector<std::size_t> perm(events.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = i;
  }
  int permutations = 0;
  do {
    EventQueue q;
    for (const std::size_t i : perm) {
      q.push(reference[i]);
    }
    const auto order = drain(q);
    ASSERT_EQ(order.size(), reference.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_TRUE(same_event(order[i], reference[i]))
          << "position " << i << " diverged";
    }
    ++permutations;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(permutations, 720);  // 6! orderings all checked
}

TEST(EventQueue, OrderIsStrictAndAntisymmetric) {
  const Event a{1.0, EventKind::kRelease, 0};
  const Event b{1.0, EventKind::kRelease, 1};
  EXPECT_FALSE(event_before(a, a));  // irreflexive
  EXPECT_TRUE(event_before(a, b) != event_before(b, a));
  const Event c{1.0, EventKind::kCompletion, 7};
  EXPECT_TRUE(event_before(c, a));  // kind outranks actor
}

TEST(EventQueue, ClearKeepsCapacityForReuse) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) {
    q.push({static_cast<double>(i), EventKind::kRelease, i});
  }
  const std::size_t warm = q.capacity();
  EXPECT_GE(warm, 64u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), warm);  // the zero-alloc reuse property
  q.push({0.5, EventKind::kBatteryObs, -1});
  EXPECT_EQ(q.top().kind, EventKind::kBatteryObs);
}

TEST(EventQueue, KindToStringCoversTaxonomy) {
  EXPECT_EQ(to_string(EventKind::kCompletion), "completion");
  EXPECT_EQ(to_string(EventKind::kRelease), "release");
  EXPECT_EQ(to_string(EventKind::kBatteryObs), "battery-obs");
}

}  // namespace
}  // namespace bas::sim
