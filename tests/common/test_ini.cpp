// Tests for the INI reader under scenario and campaign files.
#include "common/ini.hpp"

#include <gtest/gtest.h>

#include <string>

namespace densevlc {
namespace {

std::string raw(const IniConfig& cfg, const std::string& key) {
  for (const IniEntry& entry : cfg.items()) {
    if (entry.key == key) return entry.value;
  }
  return "<missing>";
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
  EXPECT_EQ(cfg.sections(), (std::vector<std::string>{"room", "system"}));
}

TEST(Ini, CommentsAndWhitespace) {
  const auto cfg = IniConfig::parse(
      "; full line comment\n"
      "# another\n"
      "  key1 =  spaced value \n"
      "key2 = 7 ; trailing comment\n"
      "[ spaced ]\n"
      "key3 = x\r\n"
      "\n");
  EXPECT_EQ(raw(cfg, "key1"), "spaced value");
  EXPECT_EQ(raw(cfg, "key2"), "7");
  EXPECT_EQ(raw(cfg, "spaced.key3"), "x");
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
  ASSERT_EQ(cfg.errors().size(), 3u);
  EXPECT_EQ(cfg.errors()[0].message, "line 2: expected key = value");
  EXPECT_EQ(cfg.errors()[1].message, "line 3: malformed section header");
  EXPECT_EQ(cfg.errors()[2].message, "line 4: empty key");
  EXPECT_TRUE(cfg.errors()[0].key.empty());
}

TEST(Ini, EntriesKeepFileOrderAndLines) {
  const auto cfg =
      IniConfig::parse("[s]\nz = 1\n\n; note\na = 2\n[r]\nm = 3\n");
  ASSERT_EQ(cfg.items().size(), 3u);
  EXPECT_EQ(cfg.items()[0].section, "s");
  EXPECT_EQ(cfg.items()[0].key, "s.z");
  EXPECT_EQ(cfg.items()[0].line, 2u);
  EXPECT_EQ(cfg.items()[1].key, "s.a");
  EXPECT_EQ(cfg.items()[1].line, 5u);
  EXPECT_EQ(cfg.items()[2].section, "r");
  EXPECT_EQ(cfg.items()[2].key, "r.m");
  EXPECT_EQ(cfg.items()[2].value, "3");
  EXPECT_EQ(cfg.items()[2].line, 7u);
  EXPECT_EQ(raw(cfg, "s.other"), "<missing>");
}

TEST(Ini, DuplicateKeyIsAnError) {
  // The same key in another section is a different key; the same
  // section.key twice is an error naming both lines, in whatever
  // spelling the section header reopens it.
  const auto cfg =
      IniConfig::parse("[s]\nk = 1\n[t]\nk = 2\n[ s ]\nk = 3\n");
  ASSERT_EQ(cfg.errors().size(), 1u);
  EXPECT_EQ(cfg.errors()[0].key, "s.k");
  EXPECT_EQ(cfg.errors()[0].message,
            "line 6: duplicate key (first set on line 2)");
  EXPECT_EQ(cfg.items().size(), 2u);
  EXPECT_EQ(raw(cfg, "s.k"), "1");
}

}  // namespace
}  // namespace densevlc
