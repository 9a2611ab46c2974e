// Fixture: the same shapes, alive — must be clean. Every declaration has
// an external caller.
#pragma once

#include <vector>

namespace densevlc::phy {

std::vector<double> window(const std::vector<double>& signal);

double used_helper(double x);

}  // namespace densevlc::phy
