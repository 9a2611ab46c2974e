// Fixture: the scratch convention, followed — scratch is taken by
// non-const reference, and a const reference to a non-scratch type is
// fine.
#pragma once

#include <vector>

namespace densevlc::phy {

struct DemodScratch {
  std::vector<double> buffer;
};

void window_in_place(const std::vector<double>& signal,
                     std::vector<double>& out, DemodScratch& scratch);

}  // namespace densevlc::phy
