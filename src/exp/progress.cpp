#include "exp/progress.hpp"

#include <cstdio>

namespace bas::exp {

Progress::Progress(std::string title, std::size_t total, bool enabled,
                   double interval_s)
    : title_(std::move(title)),
      total_(total),
      enabled_(enabled),
      interval_s_(interval_s),
      start_(std::chrono::steady_clock::now()),
      last_print_(start_) {}

void Progress::tick() {
  const std::size_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!enabled_) {
    return;
  }
  // Drop the line rather than block a worker when another thread holds
  // the throttle; the final line (done == total) always prints.
  std::unique_lock<std::mutex> lock(print_mutex_, std::defer_lock);
  if (done == total_) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  const double since_print =
      std::chrono::duration<double>(now - last_print_).count();
  if (done != total_ && since_print < interval_s_) {
    return;
  }
  last_print_ = now;
  const double elapsed = std::chrono::duration<double>(now - start_).count();
  const double eta =
      done > 0 ? elapsed * static_cast<double>(total_ - done) /
                     static_cast<double>(done)
               : 0.0;
  std::fprintf(stderr,
               "%s: %zu/%zu jobs (%.1f%%), elapsed %.1fs, eta %.1fs\n",
               title_.c_str(), done, total_,
               total_ > 0 ? 100.0 * static_cast<double>(done) /
                                static_cast<double>(total_)
                          : 100.0,
               elapsed, eta);
}

void Progress::note(const std::string& text) const {
  if (enabled_) {
    std::fprintf(stderr, "%s: %s\n", title_.c_str(), text.c_str());
  }
}

}  // namespace bas::exp
