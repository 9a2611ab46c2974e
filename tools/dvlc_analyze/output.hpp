// Output renderers: GCC-style human text and SARIF 2.1.0 (for CI
// annotation and artifact upload).
#pragma once

#include <string>
#include <vector>

#include "analysis.hpp"

namespace densevlc::analyze {

/// `path:line: error: [rule] message` — editors and CI both parse this.
std::string render_human(const std::vector<Finding>& findings);

/// SARIF 2.1.0 with one run, one rule descriptor per distinct rule id.
/// Each result carries partialFingerprints.dvlcSymbol/v1 — a
/// line-number-free fingerprint — so SARIF viewers can match results
/// across runs despite unrelated line drift.
std::string render_sarif(const std::vector<Finding>& findings,
                         const std::vector<RuleInfo>& rules);

/// The line-drift-stable fingerprint emitted as dvlcSymbol/v1.
std::string finding_fingerprint(const Finding& f);

}  // namespace densevlc::analyze
