// Crash-atomic file replacement for output artifacts (bench JSON,
// SARIF, analyzer baselines): write-temp-then-rename, so an interrupted
// run never leaves a truncated file under the final name.
#pragma once

#include <string>

namespace densevlc {

/// Atomically replaces `path` with `contents`: the bytes go to a
/// temporary file in the same directory (write + fsync), which is then
/// renamed over the target. A crash at any instant leaves either the
/// old file or the new one, never a truncated hybrid.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     const std::string& contents);

}  // namespace densevlc
