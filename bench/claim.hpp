#pragma once

// The bench_ext_* programs print their series to stdout, then check the
// claim their header states at their committed seeds and sizes. A claim
// that fails writes "# claim failed: <what>" to stderr, and the program
// exits 1, which fails its ctest case.

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

namespace anonpath::bench {

/// Reports `what` on stderr when `holds` is false; returns `holds`.
inline bool claim(bool holds, const std::string& what) {
  if (!holds) std::cerr << "# claim failed: " << what << '\n';
  return holds;
}

/// True when each value is strictly below the one before it.
inline bool falls(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) ==
         v.end();
}

/// True when each value is strictly above the one before it.
inline bool rises(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
         v.end();
}

}  // namespace anonpath::bench
