// Consumer TU: calls every public declaration in alive.hpp.
#include <vector>

namespace densevlc::phy {

double drive(std::vector<double>& buf) {
  buf = window(buf);
  return used_helper(buf.empty() ? 0.0 : buf.front());
}

}  // namespace densevlc::phy
