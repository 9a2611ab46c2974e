// Global allocation counter for zero-allocation assertions.
//
// Linking alloc_hook.cpp into a binary replaces the global operator
// new/delete family with counting wrappers. The fast-path, batch and
// prober tests read the counter around their steady-state loops: a
// non-zero delta on a DVLC_HOT path is a regression.
#pragma once

#include <cstdint>

namespace densevlc::bench {

/// Number of global operator new / new[] calls since process start.
std::uint64_t alloc_count();

}  // namespace densevlc::bench
