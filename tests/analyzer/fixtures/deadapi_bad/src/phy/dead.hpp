// Fixture: a dead public declaration next to a live one. `window` is
// called from the consumer TU; `unused_helper` is called only from
// tests/, which does not count as a use, so it alone is reported.
#pragma once

#include <vector>

namespace densevlc::phy {

// Live: use_dead.cpp calls it.
std::vector<double> window(const std::vector<double>& signal);

// Dead: only tests/test_dead.cpp names it outside this header/source
// pair; delete it or move it into the .cpp.
double unused_helper(double x);  // EXPECT-FINDING: dead-public-api

}  // namespace densevlc::phy
