// Consumer TU: references every declaration in missing_wrapper.hpp so
// the dead-api pass sees external uses; the api-scratch-ref findings
// under test live in the header.
namespace densevlc::phy {

void exercise_scratch(DemodScratch& scratch) {
  run_const(scratch);
  run_by_value(scratch);
  run_ok(scratch);
}

}  // namespace densevlc::phy
