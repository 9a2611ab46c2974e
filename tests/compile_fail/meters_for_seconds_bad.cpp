// Must NOT compile: a distance is not a duration. Handing a Seconds
// parameter (an epoch time, a trace timestamp) the receiver height is a
// plausible argument transposition.
#include "common/quantity.hpp"

namespace densevlc {

Seconds advance(Seconds dt) { return dt; }

Seconds misuse() { return advance(Meters{0.8}); }

}  // namespace densevlc
