#include "exp/sink.hpp"

#include "util/cli.hpp"
#include "util/text.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bas::exp {

namespace {

std::string csv_escape(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    return text;
  }
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

const char* const kStats[] = {"count", "mean", "stddev", "min", "max", "sum"};

std::vector<double> stat_values(const util::Accumulator& acc) {
  return {static_cast<double>(acc.count()), acc.mean(), acc.stddev(),
          acc.min(),                        acc.max(),  acc.sum()};
}

}  // namespace

std::string format_double(double value) { return util::format_g17(value); }

std::string to_csv(const ExperimentResult& result) {
  std::ostringstream out;
  bool first = true;
  for (const auto& axis : result.grid().axes()) {
    out << (first ? "" : ",") << csv_escape(axis.name);
    first = false;
  }
  for (const auto& metric : result.metric_names()) {
    for (const auto* stat : kStats) {
      out << (first ? "" : ",") << csv_escape(metric + "_" + stat);
      first = false;
    }
  }
  out << '\n';
  for (std::size_t c = 0; c < result.cell_count(); ++c) {
    first = true;
    for (const auto& label : result.grid().labels(c)) {
      out << (first ? "" : ",") << csv_escape(label);
      first = false;
    }
    for (std::size_t m = 0; m < result.metric_names().size(); ++m) {
      for (const double v : stat_values(result.at(c, m))) {
        out << (first ? "" : ",") << format_double(v);
        first = false;
      }
    }
    out << '\n';
  }
  return out.str();
}

void write(const ExperimentResult& result, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  file << to_csv(result);
}

void write_csv_option(const util::Cli& cli, const ExperimentResult& result) {
  if (const auto path = cli.get("csv"); !path.empty()) {
    write(result, path);
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace bas::exp
