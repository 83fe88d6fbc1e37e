#include "util/text.hpp"

#include <cstdio>
#include <exception>

namespace bas::util {

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    out += (out.empty() ? "" : ", ") + item;
  }
  return out;
}

std::string format_g17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

namespace {

// std::sto* with the whole-string check: `parse` must consume all of
// `text`; its invalid_argument/out_of_range become a rejection.
template <typename Parse>
auto parse_whole(const std::string& text, Parse parse)
    -> std::optional<decltype(parse(text, nullptr))> {
  try {
    std::size_t consumed = 0;
    const auto value = parse(text, &consumed);
    if (consumed == text.size()) {
      return value;
    }
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

}  // namespace

std::optional<long long> parse_int(const std::string& text) {
  return parse_whole(text, [](const std::string& t, std::size_t* pos) {
    return std::stoll(t, pos);
  });
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.find('-') != std::string::npos) {
    return std::nullopt;
  }
  return parse_whole(text, [](const std::string& t, std::size_t* pos) {
    return static_cast<std::uint64_t>(std::stoull(t, pos));
  });
}

std::optional<double> parse_double(const std::string& text) {
  return parse_whole(text, [](const std::string& t, std::size_t* pos) {
    return std::stod(t, pos);
  });
}

}  // namespace bas::util
