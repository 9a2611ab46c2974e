// Fixture: canonical waivers must carry a reason; a bare tag is itself a
// finding — and it waives nothing.
#include <cstdlib>

namespace densevlc {

int sample() {
  // DVLC_LINT_WAIVE(banned)  EXPECT-FINDING: waiver-syntax
  return rand();  // EXPECT-FINDING: banned
}

// A waiver naming no rule (a typo here) is a finding, and waives nothing.
int sample_typo() {
  // DVLC_LINT_WAIVE(bannned): misspelled rule id  EXPECT-FINDING: waiver-syntax
  return rand();  // EXPECT-FINDING: banned
}

}  // namespace densevlc
