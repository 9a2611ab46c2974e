// Consumer TU: calls the header's declaration so the dead-api pass sees
// an external use.
#include <vector>

namespace densevlc::phy {

void window_smoke(std::vector<double>& buf, DemodScratch& scratch) {
  window_in_place(buf, buf, scratch);
}

}  // namespace densevlc::phy
