// Fixture: a dead public declaration next to a live one. `window` is
// called from the consumer TU; `unused_helper` is mentioned nowhere
// outside this header, so it alone is reported.
#pragma once

#include <vector>

namespace densevlc::phy {

// Live: use_dead.cpp calls it.
std::vector<double> window(const std::vector<double>& signal);

// Dead: no file outside this header/source pair names it; delete it or
// move it into the .cpp.
double unused_helper(double x);  // EXPECT-FINDING: dead-public-api

}  // namespace densevlc::phy
