#include "util/table.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>

namespace bas::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string Table::num(long long value) { return std::to_string(value); }

std::string Table::str() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << cells[c];
      if (c + 1 < cells.size()) {
        out << std::string(widths[c] - cells[c].size() + 2, ' ');
      }
    }
    out << '\n';
  };
  emit_row(headers_);
  std::vector<std::string> rule;
  rule.reserve(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule.push_back(std::string(widths[c], '-'));
  }
  emit_row(rule);
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

void Table::print() const { std::cout << str(); }

void print_banner(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n\n";
}

}  // namespace bas::util
