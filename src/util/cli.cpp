#include "util/cli.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/text.hpp"

namespace bas::util {

Cli::Cli(int argc, const char* const* argv,
         std::map<std::string, std::string> defaults)
    : values_(std::move(defaults)) {
  // Flag-ness is fixed by the declared default, never by the current
  // value — a value option that happens to hold "0"/"1" (e.g. --seed 1)
  // must still consume `--seed 7`'s argument.
  for (const auto& [key, value] : values_) {
    if (value == "false" || value == "true") {
      flags_.push_back(key);
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::invalid_argument("unknown option --" + name +
                                  " (known options: " + known_options(values_) +
                                  ")");
    }
    const bool is_flag =
        std::find(flags_.begin(), flags_.end(), name) != flags_.end();
    if (!has_value) {
      if (is_flag) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::invalid_argument("option --" + name + " expects a value");
      }
    }
    it->second = value;
  }
}

std::string Cli::known_options(
    const std::map<std::string, std::string>& options) {
  std::string out;
  for (const auto& [key, unused] : options) {
    out += (out.empty() ? "--" : " --") + key;
  }
  return out;
}

std::string Cli::usage(const std::map<std::string, std::string>& defaults) {
  if (defaults.empty()) {
    return "options: none\n";
  }
  std::size_t width = 0;
  for (const auto& [key, unused] : defaults) {
    width = std::max(width, key.size());
  }
  std::ostringstream out;
  out << "options (with their defaults):\n";
  for (const auto& [key, value] : defaults) {
    out << "  --" << key;
    if (!value.empty()) {
      out << std::string(width - key.size() + 2, ' ') << value;
    }
    out << '\n';
  }
  return out.str();
}

std::map<std::string, std::string> Cli::with_bench_defaults(
    std::map<std::string, std::string> defaults) {
  defaults.emplace("jobs", "auto");
  defaults.emplace("csv", "");
  defaults.emplace("cache", "");
  defaults.emplace("merge", "false");
  defaults.emplace("progress", "false");
  defaults.emplace("trace-out", "");
  defaults.emplace("keep-going", "false");
  return defaults;
}

int Cli::jobs() const {
  const std::string value = get("jobs");
  if (value == "auto" || value == "0") {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  // Reject trailing garbage ("4x") and out-of-range counts rather than
  // silently truncating.
  const auto parsed = parse_int(value);
  if (!parsed || *parsed < 1 || *parsed > 4096) {
    throw std::invalid_argument(
        "option --jobs expects a thread count in [1, 4096] or 'auto', got '" +
        value + "'");
  }
  return static_cast<int>(*parsed);
}

bool Cli::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Cli::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    // A driver reading an option it never declared is a bug, not a
    // rejected input.
    throw std::logic_error("undeclared option --" + name);
  }
  return it->second;
}

namespace {

// Unwraps a strict parse or throws the option's "expects" error.
template <typename T>
T expect(const std::optional<T>& parsed, const std::string& name,
         const char* what, const std::string& text) {
  if (!parsed) {
    throw std::invalid_argument("option --" + name + " expects " + what +
                                ", got '" + text + "'");
  }
  return *parsed;
}

}  // namespace

long long Cli::get_int(const std::string& name) const {
  const std::string text = get(name);
  return expect(parse_int(text), name, "an integer", text);
}

double Cli::get_double(const std::string& name) const {
  const std::string text = get(name);
  return expect(parse_double(text), name, "a number", text);
}

bool Cli::get_flag(const std::string& name) const {
  const std::string v = get(name);
  return v == "1" || v == "true" || v == "yes";
}

std::uint64_t Cli::get_u64(const std::string& name) const {
  const std::string text = get(name);
  return expect(parse_u64(text), name, "a non-negative integer", text);
}

void Cli::show_effective(const std::string& key, long long value) {
  get(key);  // throws on an undeclared option
  shown_[key] = std::to_string(value);
}

std::string Cli::summary() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [key, parsed] : values_) {
    const auto shown = shown_.find(key);
    const std::string& value = shown != shown_.end() ? shown->second : parsed;
    // Unset optional values would render as a bare "--key" and make the
    // banner ambiguous to paste back; the empty string is their default.
    if (value.empty()) {
      continue;
    }
    if (!first) {
      out << ' ';
    }
    first = false;
    out << "--" << key << ' ' << value;
  }
  return out.str();
}

std::string Cli::config_summary() const {
  // Flags that steer execution, reporting or storage without changing
  // any job's output — excluded from the cache-keying summary.
  // --keep-going belongs here too: tolerating failed jobs must not
  // invalidate a store full of results.
  static const char* const kEngineFlags[] = {
      "jobs",     "csv",       "cache",      "merge",
      "progress", "trace-out", "keep-going", "list-scenarios"};
  std::ostringstream out;
  bool first = true;
  for (const auto& [key, value] : values_) {
    if (std::find_if(std::begin(kEngineFlags), std::end(kEngineFlags),
                     [&key](const char* flag) { return key == flag; }) !=
        std::end(kEngineFlags)) {
      continue;
    }
    // Empty values mark unset optional settings (e.g. --scenario.FIELD
    // overrides); leaving them out keeps the cache key stable when a new
    // optional field is introduced.
    if (value.empty()) {
      continue;
    }
    if (!first) {
      out << ' ';
    }
    first = false;
    out << "--" << key << ' ' << value;
  }
  return out.str();
}

}  // namespace bas::util
