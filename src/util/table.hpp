#pragma once
// ASCII table rendering for the benchmark harnesses: every bench binary
// prints the same rows the paper's tables/figures report, via this helper.

#include <string>
#include <vector>

namespace bas::util {

/// Column-aligned ASCII table. Cells are strings; numeric helpers format
/// with a fixed precision. Rendered with a header rule, e.g.
///
///   # of tasks  Random  LTF    pUBS
///   ----------  ------  -----  -----
///   5           1.32    1.25   1.05
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; it is padded/truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Formats a double with `precision` digits after the decimal point.
  static std::string num(double value, int precision = 2);
  /// Formats an integer.
  static std::string num(long long value);

  /// Renders the table to a string (trailing newline included).
  std::string str() const;

  /// Renders to stdout.
  void print() const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner:  ==== title ====
void print_banner(const std::string& title);

}  // namespace bas::util
