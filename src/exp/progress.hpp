#pragma once
// Stage 2's progress reporter.
//
// Long campaigns (the paper's Table 2 at --sets 100 is 500 jobs) need
// a heartbeat: Progress counts finished jobs and prints
//
//   <title>: 128/1024 jobs (12.5%), elapsed 42.0s, eta 294.1s
//
// to stderr, throttled to one line per `interval_s` (the runner passes
// half a second) plus a final line at completion. stdout is untouched,
// so tables and CSV byte-compare regardless of whether reporting is on.
// tick() is thread-safe and, when disabled, a single atomic increment.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>

namespace bas::exp {

class Progress {
 public:
  /// `total` is the number of jobs this process will execute (after
  /// store hits). Disabled reporters never print.
  /// `interval_s` throttles heartbeat lines (<= 0 prints every tick);
  /// the final line always prints.
  Progress(std::string title, std::size_t total, bool enabled,
           double interval_s);

  /// Records one finished job; prints a throttled status line.
  void tick();

  /// Prints `text` to stderr when enabled — for one-off notes like the
  /// store-resume summary.
  void note(const std::string& text) const;

 private:
  std::string title_;
  std::size_t total_ = 0;
  bool enabled_ = false;
  double interval_s_ = 0.5;
  std::atomic<std::size_t> done_{0};
  std::mutex print_mutex_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_print_;
};

}  // namespace bas::exp
