#include "store/store.hpp"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exp/sink.hpp"

namespace bas::store {

std::string format_metrics(const std::vector<double>& metrics) {
  std::string text = "[";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    if (m) {
      text += ',';
    }
    text += exp::format_double(metrics[m]);
  }
  text += ']';
  return text;
}

bool parse_metrics(const char* text, std::vector<double>* metrics) {
  if (text == nullptr || *text != '[') {
    return false;
  }
  std::vector<double> values;
  const char* cursor = text + 1;
  while (*cursor != ']') {
    char* end = nullptr;
    const double value = std::strtod(cursor, &end);
    if (end == cursor) {
      return false;
    }
    values.push_back(value);
    cursor = end;
    if (*cursor == ',') {
      ++cursor;
    } else if (*cursor != ']') {
      return false;
    }
  }
  *metrics = std::move(values);
  return true;
}

// ------------------------------------------------------- live markers

WriterMarker::WriterMarker(const std::string& dir, const std::string& stem) {
  path_ = dir + "/" + stem + ".pid" + std::to_string(::getpid()) + ".live";
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot create writer marker '" + path_ + "'");
  }
  out << ::getpid() << "\n";
}

WriterMarker::~WriterMarker() {
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

namespace {

/// Pid parsed from "<stem>.pid<PID>.live", or -1 when the name does not
/// follow the marker convention.
long marker_pid(const std::string& filename) {
  const auto live_at = filename.rfind(".live");
  if (live_at == std::string::npos || live_at + 5 != filename.size()) {
    return -1;
  }
  const auto pid_at = filename.rfind(".pid", live_at);
  if (pid_at == std::string::npos) {
    return -1;
  }
  char* end = nullptr;
  const char* cursor = filename.c_str() + pid_at + 4;
  const long pid = std::strtol(cursor, &end, 10);
  if (end == cursor || end != filename.c_str() + live_at || pid <= 0) {
    return -1;
  }
  return pid;
}

bool process_alive(long pid) {
  // Signal 0 probes existence without delivering anything. EPERM means
  // "exists but not ours" — still alive.
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

}  // namespace

void require_no_live_writers(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    const long pid = marker_pid(name);
    if (pid < 0) {
      continue;
    }
    if (pid != static_cast<long>(::getpid()) && process_alive(pid)) {
      throw std::runtime_error(
          "store directory '" + dir + "' has a live writer (marker '" + name +
          "', pid " + std::to_string(pid) +
          "): refusing to compact while another process may be appending; "
          "compact after the shards finish");
    }
    // A marker whose process died (kill -9) is stale; clear it so the
    // directory is not bricked.
    std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace bas::store
