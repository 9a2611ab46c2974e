// Fixture: scratch structs passed against the convention. Scratch is
// mutable working memory reused across calls, so a const reference
// cannot be written and a by-value copy throws the reuse away; only a
// non-const reference is clean. The consumer TU references every
// declaration, so the dead-api pass stays quiet.
#pragma once

#include <vector>

namespace densevlc::phy {

struct DemodScratch {
  std::vector<double> buffer;
};

void run_const(const DemodScratch& scratch);  // EXPECT-FINDING: api-scratch-ref

void run_by_value(DemodScratch scratch);  // EXPECT-FINDING: api-scratch-ref

void run_ok(DemodScratch& scratch);  // non-const reference: clean

}  // namespace densevlc::phy
