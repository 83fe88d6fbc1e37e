#include "store/store.hpp"

#include <cstdlib>

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

}  // namespace bas::store
