#pragma once
// Deterministic discrete-event queue — the spine of the simulator loop
// (simulator.cpp).
//
// The queue orders pending events by (time, kind, actor), a strict
// total order: two events never tie, so the pop sequence is unique and
// independent of insertion order and of how the heap happened to be
// laid out. That invariance is what keeps simulation runs
// bit-reproducible for any thread count under the campaign runner (the
// same property util::insertion_sort documents for the scheduling
// sorts). The shape follows gacspp's CScheduleable priority-queue
// engine; the kinds are this simulator's taxonomy:
//
//   kCompletion  a running node finishes under the current speed. The
//                uniprocessor has at most one node in flight, so the
//                engine keeps the pending completion in a one-element
//                "running slice" register and compares it against
//                top() instead of paying heap traffic per slice; the
//                kind exists so the ordering contract (completions
//                dispatch before a simultaneous release) is explicit
//                and testable.
//   kRelease     a graph's next instance arrives (actor = graph id);
//                re-armed from the graph's ArrivalProcess on pop.
//   kBatteryObs  a battery-observation point: the open merge window
//                must be flushed through the kernel (actor unused).
//
// The fixed horizon (drain = false) is not an event: the loop compares
// the clock against it once per step.
//
// DVS decision points are not queued: the paper re-selects the
// frequency exactly at releases and completions, so every dispatch of
// those kinds *is* a DVS point; the hi->lo switch of a realized
// two-point mix is an intra-slice boundary handled by the slice loop.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bas::sim {

enum class EventKind : std::uint8_t {
  kCompletion = 0,
  kRelease = 1,
  kBatteryObs = 2,
};

inline std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kCompletion: return "completion";
    case EventKind::kRelease: return "release";
    case EventKind::kBatteryObs: return "battery-obs";
  }
  return "?";
}

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kRelease;
  /// Graph id for releases/completions; unused (-1) otherwise.
  int actor = -1;
};

/// The queue's strict total order: time, then kind, then actor. Equal
/// (time, kind, actor) triples cannot occur — each (kind, actor) pair
/// has at most one pending event.
inline bool event_before(const Event& a, const Event& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  return a.actor < b.actor;
}

/// Binary min-heap over event_before on a reused vector: push/pop are
/// O(log n) with no allocation once capacity is warm (the event
/// engine's zero-alloc property covers the queue too).
class EventQueue {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }
  std::size_t capacity() const noexcept { return heap_.capacity(); }
  void clear() noexcept { heap_.clear(); }

  const Event& top() const { return heap_.front(); }

  void push(const Event& e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!event_before(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  Event pop() {
    Event out = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t best = i;
      if (l < n && event_before(heap_[l], heap_[best])) {
        best = l;
      }
      if (r < n && event_before(heap_[r], heap_[best])) {
        best = r;
      }
      if (best == i) {
        break;
      }
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
    return out;
  }

 private:
  std::vector<Event> heap_;
};

}  // namespace bas::sim
