#include "exp/experiment.hpp"

#include <stdexcept>

namespace bas::exp {

ExperimentResult::ExperimentResult(std::string title, Grid grid,
                                   std::vector<std::string> metric_names)
    : title_(std::move(title)),
      grid_(std::move(grid)),
      metric_names_(std::move(metric_names)) {
  cells_.resize(grid_.cell_count());
  for (auto& cell : cells_) {
    cell.metrics.resize(metric_names_.size());
  }
}

std::size_t ExperimentResult::metric_index(const std::string& name) const {
  for (std::size_t i = 0; i < metric_names_.size(); ++i) {
    if (metric_names_[i] == name) {
      return i;
    }
  }
  throw std::out_of_range("unknown metric '" + name + "' in experiment '" +
                          title_ + "'");
}

const util::Accumulator& ExperimentResult::at(std::size_t cell,
                                              std::size_t metric) const {
  return cells_.at(cell).metrics.at(metric);
}

util::Table ExperimentResult::table(int precision) const {
  std::vector<std::string> headers;
  for (const auto& axis : grid_.axes()) {
    headers.push_back(axis.name);
  }
  for (const auto& name : metric_names_) {
    headers.push_back(name);
  }
  util::Table table(std::move(headers));
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    std::vector<std::string> row = grid_.labels(c);
    for (std::size_t m = 0; m < metric_names_.size(); ++m) {
      row.push_back(util::Table::num(mean(c, m), precision));
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace bas::exp
