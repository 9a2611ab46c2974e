// Tests for the INI configuration parser.
#include "common/ini.hpp"

#include <gtest/gtest.h>

#include <string>

namespace densevlc {
namespace {

std::string raw(const IniConfig& cfg, const std::string& key) {
  return cfg.get(key).value_or("<missing>");
}

TEST(Ini, ParsesSectionsAndKeys) {
  const auto cfg = IniConfig::parse(
      "top = 1\n"
      "[room]\n"
      "width = 3.5\n"
      "depth = 4\n"
      "[system]\n"
      "kappa = 1.3\n");
  EXPECT_EQ(cfg.items().size(), 4u);
  EXPECT_EQ(raw(cfg, "top"), "1");
  EXPECT_EQ(raw(cfg, "room.width"), "3.5");
  EXPECT_EQ(raw(cfg, "room.depth"), "4");
  EXPECT_EQ(raw(cfg, "system.kappa"), "1.3");
}

TEST(Ini, CommentsAndWhitespace) {
  const auto cfg = IniConfig::parse(
      "; full line comment\n"
      "# another\n"
      "  key1 =  spaced value \n"
      "key2 = 7 ; trailing comment\n"
      "\n");
  EXPECT_EQ(raw(cfg, "key1"), "spaced value");
  EXPECT_EQ(raw(cfg, "key2"), "7");
}

TEST(Ini, MalformedLinesReportedButSkipped) {
  const auto cfg = IniConfig::parse(
      "good = 1\n"
      "this line has no equals\n"
      "[unterminated\n"
      "= empty key\n"
      "still_good = 2\n");
  EXPECT_EQ(raw(cfg, "good"), "1");
  EXPECT_EQ(raw(cfg, "still_good"), "2");
  EXPECT_EQ(cfg.items().size(), 2u);
  EXPECT_FALSE(cfg.errors().empty());
}

TEST(Ini, HasAndGet) {
  const auto cfg = IniConfig::parse("[s]\nk = v\n");
  EXPECT_FALSE(cfg.get("s.other").has_value());
  ASSERT_TRUE(cfg.get("s.k").has_value());
  EXPECT_EQ(*cfg.get("s.k"), "v");
}

TEST(Ini, LastDuplicateWins) {
  const auto cfg = IniConfig::parse("k = 1\nk = 2\n");
  EXPECT_EQ(raw(cfg, "k"), "2");
}

}  // namespace
}  // namespace densevlc
