#include "exp/factories.hpp"

#include <algorithm>
#include <stdexcept>

#include "arrival/arrival.hpp"
#include "scenario/scenario.hpp"
#include "util/text.hpp"

namespace bas::exp {

Axis battery_axis() { return Axis{"battery", scenario::battery_labels()}; }

const std::vector<std::string>& scheme_labels() {
  static const std::vector<std::string> labels = [] {
    std::vector<std::string> out;
    for (const auto kind : core::table2_schemes()) {
      out.push_back(core::to_string(kind));
    }
    return out;
  }();
  return labels;
}

std::size_t scheme_index(const std::string& label) {
  const auto& labels = scheme_labels();
  const auto it = std::find(labels.begin(), labels.end(), label);
  if (it == labels.end()) {
    throw std::invalid_argument("unknown scheme '" + label + "' (known: " +
                                util::join(labels) + ")");
  }
  return static_cast<std::size_t>(it - labels.begin());
}

core::SchemeKind scheme_kind_at(std::size_t i) {
  return core::table2_schemes().at(i);
}

Axis scheme_axis() { return Axis{"scheme", scheme_labels()}; }

Axis scenario_axis() { return Axis{"scenario", scenario::scenario_names()}; }

Axis arrival_axis() { return Axis{"arrival", arrival::labels()}; }

}  // namespace bas::exp
