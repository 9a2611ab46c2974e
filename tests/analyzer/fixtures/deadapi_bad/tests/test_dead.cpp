// Test TU: calls `unused_helper`, but a test is not a caller, so the
// helper stays dead (library code that only its own tests call).
namespace densevlc::phy {

bool check_unused_helper() { return unused_helper(1.0) == 1.0; }

}  // namespace densevlc::phy
