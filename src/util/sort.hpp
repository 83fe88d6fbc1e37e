#pragma once
// Small-N sorting for hot loops.
//
// The scheduling hot path sorts a handful of elements (EDF order,
// scored candidates, laEDF's deferral order when it is rebuilt). Each comparator is
// a strict TOTAL order — every tie is broken explicitly by an id — so
// any comparison sort produces the same unique sequence std::sort
// would; insertion sort merely skips the introsort dispatch, which
// dominates at these sizes. That output-identity argument is
// load-bearing for the byte-identity contract (EXPERIMENTS.md,
// "Performance"): do not use this with comparators that can tie.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace bas::util {

/// Inserts `value` at its lower_bound position, keeping `v` sorted
/// under `less`. With a strict TOTAL order this grows exactly the
/// unique sorted sequence insertion_sort would produce over the same
/// elements — the property that lets the event engine maintain its EDF
/// order incrementally (one insert per release, one erase per
/// completion) while staying element-for-element identical to a
/// per-step rebuild. The comparator must key every element it is asked
/// to compare by that element's CURRENT sort key.
template <typename T, typename Less>
void insert_sorted(std::vector<T>& v, const T& value, Less less) {
  v.insert(std::lower_bound(v.begin(), v.end(), value, less), value);
}

template <typename T, typename Less>
void insertion_sort(std::vector<T>& v, Less less) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    T key = std::move(v[i]);
    std::size_t j = i;
    while (j > 0 && less(key, v[j - 1])) {
      v[j] = std::move(v[j - 1]);
      --j;
    }
    v[j] = std::move(key);
  }
}

}  // namespace bas::util
