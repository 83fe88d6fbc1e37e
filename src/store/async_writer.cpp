#include "store/async_writer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace_log.hpp"

namespace bas::store {

std::string WriterStats::summary() const {
  return "queue " + std::to_string(depth) + "/" + std::to_string(capacity) +
         " (peak " + std::to_string(high_water) + "), stalls " +
         std::to_string(stalls) + ", drops " + std::to_string(dropped);
}

AsyncWriter::AsyncWriter(CampaignStore& store, std::size_t capacity,
                         obs::TraceLog* trace)
    : store_(store),
      capacity_(std::max<std::size_t>(1, capacity)),
      trace_(trace) {
  ring_.resize(capacity_);
  counters_.capacity = capacity_;
  consumer_ = std::thread([this] { consume(); });
}

AsyncWriter::~AsyncWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  consumer_.join();
}

void AsyncWriter::enqueue(StoreRecord record) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (size_ == capacity_ && !failed_) {
    // Backpressure: block the producer rather than drop the record or
    // grow without bound — a slow disk slows the campaign, it never
    // loses results. Counted so the heartbeat can show it.
    ++counters_.stalls;
    not_full_.wait(lock, [this] { return size_ < capacity_ || failed_; });
  }
  if (failed_) {
    throw std::runtime_error("campaign store writer failed: " + error_);
  }
  ring_[(head_ + size_) % capacity_] = std::move(record);
  ++size_;
  ++counters_.enqueued;
  counters_.high_water = std::max(counters_.high_water, size_);
  lock.unlock();
  not_empty_.notify_one();
}

void AsyncWriter::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock,
                [this] { return (size_ == 0 && !in_flight_) || failed_; });
  if (failed_) {
    throw std::runtime_error("campaign store writer failed: " + error_);
  }
  lock.unlock();
  store_.flush();
}

WriterStats AsyncWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WriterStats snapshot = counters_;
  snapshot.depth = size_;
  return snapshot;
}

void AsyncWriter::consume() {
  std::vector<StoreRecord> batch;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    not_empty_.wait(lock, [this] { return size_ > 0 || stop_; });
    if (size_ == 0 && stop_) {
      return;
    }
    // Drain everything queued into one batch: the store pays one
    // write+flush however many jobs finished since the last commit.
    batch.clear();
    while (size_ > 0) {
      batch.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) % capacity_;
      --size_;
    }
    in_flight_ = true;
    lock.unlock();
    not_full_.notify_all();

    if (trace_ != nullptr) {
      // One sample per batch: the depth the consumer woke to. Together
      // with the post-commit sample below this draws the sawtooth of
      // the ring filling and draining on the campaign trace.
      trace_->counter("writer queue depth", obs::kCampaignPid,
                      trace_->now_us(), static_cast<double>(batch.size()));
    }

    bool ok = true;
    std::string error;
    try {
      store_.append(batch);
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    } catch (...) {
      ok = false;
      error = "non-standard exception";
    }

    lock.lock();
    in_flight_ = false;
    if (trace_ != nullptr) {
      // Post-commit sample: whatever producers queued while the batch
      // was committing. (TraceLog's own mutex nests harmlessly here —
      // it never calls back into the writer.)
      trace_->counter("writer queue depth", obs::kCampaignPid,
                      trace_->now_us(), static_cast<double>(size_));
    }
    if (ok) {
      counters_.written += batch.size();
      ++counters_.batches;
    } else {
      failed_ = true;
      error_ = std::move(error);
      // Wake every blocked producer and drainer; they rethrow.
      lock.unlock();
      not_full_.notify_all();
      drained_.notify_all();
      return;
    }
    if (size_ == 0) {
      drained_.notify_all();
    }
  }
}

}  // namespace bas::store
