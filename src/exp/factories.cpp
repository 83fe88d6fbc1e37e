#include "exp/factories.hpp"

#include "arrival/arrival.hpp"
#include "scenario/scenario.hpp"

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

core::SchemeKind scheme_kind_at(std::size_t i) {
  return core::table2_schemes().at(i);
}

Axis scheme_axis() { return Axis{"scheme", scheme_labels()}; }

Axis scenario_axis() { return Axis{"scenario", scenario::scenario_names()}; }

Axis arrival_axis() { return Axis{"arrival", arrival::labels()}; }

}  // namespace bas::exp
