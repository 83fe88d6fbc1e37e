#include "obs/trace_log.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bas::obs {

namespace {

/// Minimal JSON string escape: the names and args the repo emits are
/// ASCII, but scenario labels and error strings may carry quotes,
/// backslashes or control bytes.
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// %.3f keeps sub-microsecond spans distinguishable while staying
/// fixed-point (the viewer sorts numerically either way).
std::string fmt_us(double us) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", us);
  return buffer;
}

}  // namespace

TraceLog::TraceLog() : epoch_(std::chrono::steady_clock::now()) {}

double TraceLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceLog::span(std::string name, int pid, int tid, double ts_us,
                    double dur_us, std::string args_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(TraceEvent{std::move(name), 'X', ts_us, dur_us, pid, tid,
                               std::move(args_json)});
}

void TraceLog::instant(std::string name, int pid, int tid, double ts_us,
                       std::string args_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(TraceEvent{std::move(name), 'i', ts_us, 0.0, pid, tid,
                               std::move(args_json)});
}

void TraceLog::name_process(int pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(TraceEvent{"process_name", 'M', 0.0, 0.0, pid, 0,
                               "{\"name\": \"" + escape(name) + "\"}"});
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceLog::sorted_events() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  // stable_sort keeps same-timestamp events (e.g. a release and the
  // slice it triggers) in emission order within a track.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) {
                       return a.pid < b.pid;
                     }
                     if (a.tid != b.tid) {
                       return a.tid < b.tid;
                     }
                     return a.ts_us < b.ts_us;
                   });
  return events;
}

std::size_t TraceLog::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.name == name) {
      ++n;
    }
  }
  return n;
}

std::string TraceLog::to_json() const {
  const auto events = sorted_events();
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    out << "  {\"name\": \"" << escape(e.name) << "\", \"ph\": \"" << e.ph
        << "\", \"pid\": " << e.pid << ", \"tid\": " << e.tid
        << ", \"ts\": " << fmt_us(e.ts_us);
    if (e.ph == 'X') {
      out << ", \"dur\": " << fmt_us(e.dur_us);
    }
    if (e.ph == 'i') {
      out << ", \"s\": \"t\"";  // thread-scoped instant
    }
    if (!e.args_json.empty()) {
      out << ", \"args\": " << e.args_json;
    }
    out << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return out.str();
}

void TraceLog::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open trace file '" + path +
                             "' for writing");
  }
  file << to_json();
  file.flush();
  if (!file) {
    throw std::runtime_error("failed writing trace file '" + path + "'");
  }
}

}  // namespace bas::obs
