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

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
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

std::string to_json(const ExperimentResult& result) {
  std::ostringstream out;
  out << "{\n  \"title\": \"" << json_escape(result.title()) << "\",\n";
  out << "  \"replicates\": " << result.replicates() << ",\n";
  out << "  \"axes\": [";
  for (std::size_t a = 0; a < result.grid().axis_count(); ++a) {
    const auto& axis = result.grid().axis(a);
    out << (a ? ", " : "") << "{\"name\": \"" << json_escape(axis.name)
        << "\", \"labels\": [";
    for (std::size_t i = 0; i < axis.labels.size(); ++i) {
      out << (i ? ", " : "") << '"' << json_escape(axis.labels[i]) << '"';
    }
    out << "]}";
  }
  out << "],\n  \"metrics\": [";
  for (std::size_t m = 0; m < result.metric_names().size(); ++m) {
    out << (m ? ", " : "") << '"' << json_escape(result.metric_names()[m])
        << '"';
  }
  out << "],\n  \"cells\": [\n";
  for (std::size_t c = 0; c < result.cell_count(); ++c) {
    out << "    {\"coord\": [";
    const auto coord = result.grid().coord(c);
    for (std::size_t i = 0; i < coord.size(); ++i) {
      out << (i ? ", " : "") << coord[i];
    }
    out << "], \"values\": {";
    for (std::size_t m = 0; m < result.metric_names().size(); ++m) {
      out << (m ? ", " : "") << '"' << json_escape(result.metric_names()[m])
          << "\": {";
      const auto values = stat_values(result.at(c, m));
      for (std::size_t s = 0; s < values.size(); ++s) {
        out << (s ? ", " : "") << '"' << kStats[s]
            << "\": " << format_double(values[s]);
      }
      out << '}';
    }
    out << "}}" << (c + 1 < result.cell_count() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  return out.str();
}

void write(const ExperimentResult& result, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  file << (json ? to_json(result) : to_csv(result));
}

void write_csv_option(const util::Cli& cli, const ExperimentResult& result) {
  if (const auto path = cli.get("csv"); !path.empty()) {
    write(result, path);
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace bas::exp
