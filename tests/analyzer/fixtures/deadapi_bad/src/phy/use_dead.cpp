// Consumer TU: keeps `window` live so only the genuinely dead helper is
// reported.
#include <vector>

namespace densevlc::phy {

void drive(std::vector<double>& buf) { buf = window(buf); }

}  // namespace densevlc::phy
