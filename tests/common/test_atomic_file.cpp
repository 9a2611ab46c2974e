// Tests for the crash-atomic artifact writer: a replaced file holds
// exactly the new contents, no temporary is left beside it, and an
// unwritable target reports failure.
#include "common/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace densevlc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch path per test (removed up front, not after: a failing
/// test leaves its file behind for inspection).
std::string scratch_path(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("dvlc_atomic_file_" + name);
  std::error_code ec;
  fs::remove(p, ec);
  return p.string();
}

std::string read_raw(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in},
          std::istreambuf_iterator<char>{}};
}

TEST(WriteFileAtomic, CreatesAndReplaces) {
  const std::string path = scratch_path("replace");
  ASSERT_TRUE(write_file_atomic(path, "first contents\n"));
  EXPECT_EQ(read_raw(path), "first contents\n");
  ASSERT_TRUE(write_file_atomic(path, "second contents\n"));
  EXPECT_EQ(read_raw(path), "second contents\n");
  // No temp file left behind next to the target.
  std::size_t siblings = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(path).parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("dvlc_atomic_file_replace", 0) == 0) ++siblings;
  }
  EXPECT_EQ(siblings, 1u);
}

TEST(WriteFileAtomic, FailsOnUnwritableDirectory) {
  EXPECT_FALSE(write_file_atomic(
      "/nonexistent_dir_dvlc/artifact.json", "contents"));
}

}  // namespace
}  // namespace densevlc
