#pragma once
// Shared axis/object factories for bench sweeps.
//
// Label -> object construction for platform pieces lives in the
// scenario registry (scenario/scenario.hpp); batteries are built with
// scenario::make_battery directly. The functions here are the Axis
// adapters the experiment grids consume, so a Job's axis index is all
// a run function needs to build its own private instances. Every label
// function returns a reference to one static list; there is exactly one
// source of truth per axis.

#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "exp/grid.hpp"

namespace bas::exp {

/// Axis "battery" over scenario::battery_labels().
Axis battery_axis();

/// Table-2 scheme labels in the paper's order (EDF .. BAS-2).
const std::vector<std::string>& scheme_labels();

/// The SchemeKind behind scheme_labels()[i].
core::SchemeKind scheme_kind_at(std::size_t i);

/// Axis "scheme" over scheme_labels().
Axis scheme_axis();

/// Axis "scenario" over scenario::scenario_names() — sweep workload
/// worlds like any other factor.
Axis scenario_axis();

/// Axis "arrival" over arrival::labels() — sweep release models
/// (periodic, jitter, sporadic, Poisson, IPPP, trace replay) like any
/// other factor.
Axis arrival_axis();

}  // namespace bas::exp
