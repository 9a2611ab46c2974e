// Self-test suite for tools/spec_diff: canonicalization collapses
// formatting noise, and the diff reports only semantic differences.
#include <gtest/gtest.h>

#include <string>

#include "spec_diff.hpp"

namespace densevlc::specdiff {
namespace {

const char* const kScenarioA =
    "[scenario]\n"
    "name = demo\n"
    "kind = analytic\n"
    "[rx]\n"
    "count = 1\n"
    "x1 = 1.0\n"
    "y1 = 1.0\n";

TEST(SpecDiff, FormattingNoiseIsInvisible) {
  // Same meaning, different spelling: comments, key order, whitespace,
  // numeric formatting, and explicitly-spelled defaults.
  const std::string noisy =
      "; a comment\n"
      "[rx]\n"
      "x1=1.00\n"
      "y1 =  1\n"
      "count=1\n"
      "\n"
      "[scenario]\n"
      "kind = analytic   ; default spelled out\n"
      "name = demo\n"
      "seed = 0xD5EED\n";
  const Canonical a = canonicalize(kScenarioA);
  const Canonical b = canonicalize(noisy);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_FALSE(a.is_campaign);
  EXPECT_TRUE(diff_items(a.items, b.items).empty());
}

TEST(SpecDiff, SemanticChangeIsReported) {
  const std::string changed =
      "[scenario]\n"
      "name = demo\n"
      "kind = analytic\n"
      "[system]\n"
      "kappa = 2.0\n"
      "[rx]\n"
      "count = 1\n"
      "x1 = 1.0\n"
      "y1 = 1.0\n";
  const Canonical a = canonicalize(kScenarioA);
  const Canonical b = canonicalize(changed);
  ASSERT_TRUE(a.ok && b.ok);
  const auto entries = diff_items(a.items, b.items);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, DiffEntry::Kind::kChanged);
  EXPECT_EQ(entries[0].key, "system.kappa");
  EXPECT_EQ(entries[0].a, "1.3");
  EXPECT_EQ(entries[0].b, "2");
}

TEST(SpecDiff, AddedAndRemovedKeys) {
  std::map<std::string, std::string> a{{"x", "1"}, {"shared", "same"}};
  std::map<std::string, std::string> b{{"y", "2"}, {"shared", "same"}};
  const auto entries = diff_items(a, b);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, DiffEntry::Kind::kOnlyA);
  EXPECT_EQ(entries[0].key, "x");
  EXPECT_EQ(entries[1].kind, DiffEntry::Kind::kOnlyB);
  EXPECT_EQ(entries[1].key, "y");
  const std::string text = render_diff(entries);
  EXPECT_NE(text.find("- x = 1"), std::string::npos);
  EXPECT_NE(text.find("+ y = 2"), std::string::npos);
}

TEST(SpecDiff, CampaignSchemaDetectedAndFlattened) {
  const std::string campaign =
      "[campaign]\n"
      "instances = 8\n"
      "[sweep]\n"
      "system.kappa = 1.0 | 1.3 | 2.0\n"
      "[scenario]\n"
      "name = sweep-demo\n"
      "kind = analytic\n"
      "[rx]\n"
      "count = 1\n"
      "x1 = 1.0\n"
      "y1 = 1.0\n";
  const Canonical c = canonicalize(campaign);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.is_campaign);
  EXPECT_EQ(c.items.at("campaign.instances"), "8");
  EXPECT_EQ(c.items.at("sweep.system.kappa"), "1.0 | 1.3 | 2.0");
  EXPECT_EQ(c.items.at("scenario.name"), "sweep-demo");
}

TEST(SpecDiff, SpacedSectionHeaderIsACampaign) {
  // "[ sweep ]" names the same section as "[sweep]", as for any header.
  const Canonical c = canonicalize(
      "[ sweep ]\n"
      "system.kappa = 1.0 | 2.0\n"
      "[scenario]\n"
      "name = spaced\n"
      "[rx]\n"
      "count = 1\n"
      "x1 = 1.0\n"
      "y1 = 1.0\n");
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.is_campaign);
  EXPECT_EQ(c.items.at("sweep.system.kappa"), "1.0 | 2.0");
  EXPECT_EQ(c.items.at("campaign.instances"), "1");
}

TEST(SpecDiff, ParseFailureIsAnError) {
  const Canonical c = canonicalize("[scenario]\nkind = bogus\n");
  EXPECT_FALSE(c.ok);
  EXPECT_FALSE(c.error.empty());
}

}  // namespace
}  // namespace densevlc::specdiff
