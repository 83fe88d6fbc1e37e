#pragma once
// The async writer stage: takes store writes off the worker threads.
//
// Workers enqueue StoreRecords onto a bounded ring; one dedicated
// consumer thread drains whatever has accumulated into a batch and
// commits it with a single CampaignStore::append — so the per-job cost
// on a worker is a queue push instead of a write+flush. Modeled on
// gacspp's COutput producer/consumer output stage (bounded buffer +
// one consumer thread).
//
// Contracts:
//   backpressure   a full ring blocks the producer (counted in
//                  stats().stalls) — records are never dropped, which
//                  is why stats().dropped is always zero; it exists so
//                  the heartbeat can prove it.
//   shutdown       drain() blocks until every enqueued record is
//                  committed; the destructor drains too, so a writer
//                  going out of scope never abandons records.
//   failure        when the backend throws, the consumer parks the
//                  error and every later enqueue()/drain() rethrows it
//                  on the caller's thread — a dead store fails the
//                  campaign loudly instead of buffering forever.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "store/store.hpp"

namespace bas::obs {
class TraceLog;
}

namespace bas::store {

/// A snapshot of the writer-queue counters, for the progress heartbeat
/// and tests.
struct WriterStats {
  std::uint64_t enqueued = 0;  ///< records accepted from producers
  std::uint64_t written = 0;   ///< records committed to the backend
  std::uint64_t batches = 0;   ///< append() calls issued
  std::uint64_t stalls = 0;    ///< producer waits on a full ring
  std::uint64_t dropped = 0;   ///< records lost — always 0 (see above)
  std::size_t depth = 0;       ///< records queued right now
  std::size_t high_water = 0;  ///< max depth observed
  std::size_t capacity = 0;

  /// "queue 3/1024 (peak 17), stalls 0, drops 0" — the heartbeat form.
  std::string summary() const;
};

class AsyncWriter {
 public:
  /// Spawns the consumer thread. `capacity` bounds the ring (>= 1);
  /// the store must outlive the writer. With a TraceLog attached (not
  /// owned, must outlive the writer) the consumer samples the ring
  /// depth around every batch commit onto the campaign trace's
  /// "writer queue depth" counter track.
  AsyncWriter(CampaignStore& store, std::size_t capacity,
              obs::TraceLog* trace = nullptr);

  /// Drains the ring, then joins the consumer. Backend errors during
  /// the final drain are swallowed (call drain() first to observe
  /// them).
  ~AsyncWriter();

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  /// Hands one record to the consumer. Blocks while the ring is full;
  /// throws std::runtime_error when the consumer already failed.
  /// Thread-safe (MPSC: any number of producers).
  void enqueue(StoreRecord record);

  /// Blocks until every enqueued record is committed to the backend
  /// and flush()ed; rethrows a parked consumer error.
  void drain();

  WriterStats stats() const;

 private:
  void consume();

  CampaignStore& store_;
  const std::size_t capacity_;
  obs::TraceLog* const trace_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable drained_;
  std::vector<StoreRecord> ring_;
  std::size_t head_ = 0;  ///< index of the oldest queued record
  std::size_t size_ = 0;  ///< records queued
  bool in_flight_ = false;  ///< consumer is committing a batch
  bool stop_ = false;
  bool failed_ = false;
  std::string error_;
  WriterStats counters_;

  std::thread consumer_;
};

}  // namespace bas::store
