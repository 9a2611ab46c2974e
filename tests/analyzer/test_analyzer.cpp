// Self-test suite for tools/dvlc_analyze.
//
// Two layers:
//   - unit tests driving the lexer / waiver parser / baseline machinery
//     directly (the three tokenizer regressions — raw strings, digit
//     separators, line continuations — each pin a dedicated case);
//   - fixture tests: every directory under fixtures/ is analyzed with all
//     passes, and the resulting (file, line, rule) set must equal the
//     `// EXPECT-FINDING: <rule>` annotations inside the fixture sources.
//     Good fixtures carry no annotations and must come back clean.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis.hpp"
#include "baseline.hpp"
#include "index.hpp"
#include "output.hpp"
#include "parse.hpp"
#include "source.hpp"

namespace densevlc::analyze {
namespace {

namespace fs = std::filesystem;

fs::path fixture_root() { return fs::path{DVLC_ANALYZER_FIXTURES}; }

// --- lexer ----------------------------------------------------------------

TEST(Tokenize, RawStringIsOneOpaqueToken) {
  const auto toks = tokenize("auto s = R\"(rand(); assert(false))\"; x();");
  std::size_t strings = 0;
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "assert");
    if (t.kind == TokenKind::kString) ++strings;
  }
  EXPECT_EQ(strings, 1u);
}

TEST(Tokenize, RawStringCustomDelimiterAndPrefix) {
  const auto toks =
      tokenize("auto a = R\"xy(inner )\" quote rand())xy\"; auto b = "
               "u8R\"(assert(false))\"; done();");
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "assert");
  }
  // The trailing call survives tokenization — the raw strings closed at
  // the right spot.
  bool saw_done = false;
  for (const Token& t : toks) saw_done = saw_done || t.text == "done";
  EXPECT_TRUE(saw_done);
}

TEST(Tokenize, RawStringLineAttribution) {
  const auto toks = tokenize("int a;\nauto s = R\"(x\ny\nz)\";\nint b;");
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kString) EXPECT_EQ(t.line, 2u);
    if (t.text == "b") EXPECT_EQ(t.line, 5u);  // raw string spanned 3 lines
  }
}

TEST(Tokenize, DigitSeparatorsStayInOneNumber) {
  const auto toks = tokenize("auto n = 1'000'000; auto h = 0xFF'00;");
  std::vector<std::string> numbers;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
  }
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "1'000'000");
  EXPECT_EQ(numbers[1], "0xFF'00");
}

TEST(Tokenize, DigitSeparatorDoesNotOpenCharLiteral) {
  // If 1'000 leaked a stray quote, the following rand() would vanish
  // into a phantom char literal — it must stay a visible identifier.
  const auto toks = tokenize("int x = 1'000; rand();");
  bool saw_rand = false;
  for (const Token& t : toks) saw_rand = saw_rand || t.text == "rand";
  EXPECT_TRUE(saw_rand);
}

TEST(Tokenize, LineContinuationExtendsLineComment) {
  const auto toks = tokenize("// swallowed \\\nrand();\nnext();");
  for (const Token& t : toks) {
    if (t.kind != TokenKind::kComment) EXPECT_NE(t.text, "rand");
  }
  // Line numbers still advance past the continuation.
  for (const Token& t : toks) {
    if (t.text == "next") EXPECT_EQ(t.line, 3u);
  }
}

TEST(Tokenize, LineContinuationSplicesIdentifiers) {
  const auto toks = tokenize("int spli\\\nced = 0;");
  bool saw = false;
  for (const Token& t : toks) saw = saw || t.text == "spliced";
  EXPECT_TRUE(saw);
}

TEST(Tokenize, StringContentsNeverMatchRules) {
  const auto toks = tokenize("auto s = \"rand()\"; auto c = 'r';");
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
    }
  }
}

// --- waivers --------------------------------------------------------------

TEST(Waivers, CanonicalSyntaxWithReason) {
  std::vector<WaiverProblem> problems;
  const auto toks =
      tokenize("// DVLC_LINT_WAIVE(units): documented physics constant\n"
               "double power = 1.0;");
  const WaiverMap w = collect_waivers(toks, problems);
  EXPECT_TRUE(problems.empty());
  ASSERT_EQ(w.count("units"), 1u);
  EXPECT_EQ(w.at("units").count(1), 1u);
}

TEST(Waivers, MissingReasonIsAProblemAndWaivesNothing) {
  std::vector<WaiverProblem> problems;
  const auto toks = tokenize("// DVLC_LINT_WAIVE(banned)\nint x;");
  const WaiverMap w = collect_waivers(toks, problems);
  EXPECT_TRUE(w.empty());
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0].line, 1u);
}

TEST(Waivers, LegacySyntaxWaivesNothing) {
  // The retired `dvlc-lint: allow(<rule>)` spelling is plain comment text.
  std::vector<WaiverProblem> problems;
  const auto toks = tokenize("// dvlc-lint: allow(hot-loop-alloc)\n");
  const WaiverMap w = collect_waivers(toks, problems);
  EXPECT_TRUE(problems.empty());
  EXPECT_TRUE(w.empty());
}

TEST(Waivers, StringLiteralNeverWaives) {
  std::vector<WaiverProblem> problems;
  const auto toks =
      tokenize("auto s = \"DVLC_LINT_WAIVE(banned): not a comment\";");
  const WaiverMap w = collect_waivers(toks, problems);
  EXPECT_TRUE(w.empty());
  EXPECT_TRUE(problems.empty());
}

TEST(Waivers, UnknownRuleIsAFindingAndWaivesNothing) {
  // A misspelled or deleted rule id waives nothing, so it is reported;
  // a waiver of a listed rule keeps working.
  const fs::path dir =
      fs::temp_directory_path() / "dvlc_analyze_unknown_waiver";
  fs::remove_all(dir);
  fs::create_directories(dir / "src" / "common");
  {
    std::ofstream out{dir / "src" / "common" / "typo.cpp"};
    out << "int typo() {\n"
           "  // DVLC_LINT_WAIVE(bannned): misspelled rule id\n"
           "  return rand();\n"
           "}\n"
           "int spelled() {\n"
           "  // DVLC_LINT_WAIVE(banned): correctly spelled rule id\n"
           "  return rand();\n"
           "}\n";
  }
  const AnalysisResult result = analyze_paths({dir}, dir);
  fs::remove_all(dir);
  std::vector<std::pair<std::size_t, std::string>> got;
  for (const Finding& f : result.findings) got.emplace_back(f.line, f.rule);
  const std::vector<std::pair<std::size_t, std::string>> want = {
      {2, "waiver-syntax"}, {3, "banned"}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(result.waived, 1u);
}

// --- baseline -------------------------------------------------------------

TEST(Baseline, SuppressesUpToCountThenFails) {
  Baseline b;
  b.allowed[{"rule", "f.cpp", "sym"}] = 1;
  const std::vector<Finding> findings = {
      {"rule", "f.cpp", 10, "sym", "m"},
      {"rule", "f.cpp", 20, "sym", "m"},
  };
  const BaselineApplication applied = apply_baseline(b, findings);
  EXPECT_EQ(applied.suppressed, 1u);
  ASSERT_EQ(applied.fresh.size(), 1u);
  EXPECT_EQ(applied.fresh[0].line, 20u);
  EXPECT_TRUE(applied.stale.empty());
}

TEST(Baseline, StaleEntriesAreReportedNotFatal) {
  Baseline b;
  b.allowed[{"rule", "gone.cpp", "sym"}] = 2;
  const BaselineApplication applied = apply_baseline(b, {});
  EXPECT_TRUE(applied.fresh.empty());
  ASSERT_EQ(applied.stale.size(), 1u);
}

TEST(Baseline, RenderRoundTrips) {
  const std::vector<Finding> findings = {
      {"r1", "a.cpp", 1, "s1", "m"},
      {"r1", "a.cpp", 2, "s1", "m"},
      {"r2", "b.cpp", 3, "s2", "m"},
  };
  const fs::path tmp =
      fs::temp_directory_path() / "dvlc_analyze_baseline_test.txt";
  {
    std::ofstream out{tmp};
    out << render_baseline(findings);
  }
  const BaselineLoad load = load_baseline(tmp);
  fs::remove(tmp);
  ASSERT_TRUE(load.ok);
  EXPECT_EQ(load.baseline.allowed.at({"r1", "a.cpp", "s1"}), 2u);
  EXPECT_EQ(load.baseline.allowed.at({"r2", "b.cpp", "s2"}), 1u);
  // The round-tripped baseline suppresses exactly those findings.
  const BaselineApplication applied =
      apply_baseline(load.baseline, findings);
  EXPECT_TRUE(applied.fresh.empty());
  EXPECT_EQ(applied.suppressed, 3u);
}

TEST(Baseline, GarbledLineIsAnError) {
  const fs::path tmp =
      fs::temp_directory_path() / "dvlc_analyze_bad_baseline.txt";
  {
    std::ofstream out{tmp};
    out << "rule only-two-fields\n";
  }
  const BaselineLoad load = load_baseline(tmp);
  fs::remove(tmp);
  EXPECT_FALSE(load.ok);
}

// --- SARIF ----------------------------------------------------------------

TEST(Sarif, EscapesAndStructure) {
  const std::vector<Finding> findings = {
      {"banned", "a.cpp", 3, "rand", "say \"no\" to rand()"},
  };
  const std::vector<RuleInfo> rules = {{"banned", "no rand"}};
  const std::string sarif = render_sarif(findings, rules);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\\\"no\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"banned\""), std::string::npos);
}

// --- fixtures -------------------------------------------------------------

using Expectation = std::tuple<std::string, std::size_t, std::string>;

/// Scans every source file under `dir` for `EXPECT-FINDING: <rule>`
/// annotations; the expectation anchors to the annotation's line.
std::set<Expectation> collect_expectations(const fs::path& dir) {
  std::set<Expectation> out;
  const std::string tag = "EXPECT-FINDING:";
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in{entry.path()};
    std::string line;
    std::size_t lineno = 0;
    const std::string rel =
        fs::proximate(entry.path(), dir).generic_string();
    while (std::getline(in, line)) {
      ++lineno;
      std::size_t at = line.find(tag);
      if (at == std::string::npos) continue;
      at += tag.size();
      while (at < line.size() && line[at] == ' ') ++at;
      std::size_t end = at;
      while (end < line.size() && line[end] != ' ') ++end;
      out.insert({rel, lineno, line.substr(at, end - at)});
    }
  }
  return out;
}

void expect_fixture_matches(const std::string& scenario) {
  const fs::path dir = fixture_root() / scenario;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  const AnalysisResult result = analyze_paths({dir}, dir);
  std::set<Expectation> actual;
  for (const Finding& f : result.findings) {
    actual.insert({f.file, f.line, f.rule});
  }
  const std::set<Expectation> expected = collect_expectations(dir);
  for (const auto& e : expected) {
    EXPECT_TRUE(actual.count(e) != 0)
        << scenario << ": expected finding not produced: "
        << std::get<0>(e) << ":" << std::get<1>(e) << " [" << std::get<2>(e)
        << "]";
  }
  for (const auto& a : actual) {
    EXPECT_TRUE(expected.count(a) != 0)
        << scenario << ": unexpected finding: " << std::get<0>(a) << ":"
        << std::get<1>(a) << " [" << std::get<2>(a) << "]";
  }
}

TEST(Fixtures, ConventionsBad) { expect_fixture_matches("conventions_bad"); }
TEST(Fixtures, ConventionsGood) { expect_fixture_matches("conventions_good"); }
TEST(Fixtures, LayeringBad) { expect_fixture_matches("layering_bad"); }
TEST(Fixtures, LayeringGood) { expect_fixture_matches("layering_good"); }
TEST(Fixtures, ApiBad) { expect_fixture_matches("api_bad"); }
TEST(Fixtures, ApiGood) { expect_fixture_matches("api_good"); }
TEST(Fixtures, LexerGood) { expect_fixture_matches("lexer_good"); }
TEST(Fixtures, WaiversBad) { expect_fixture_matches("waivers_bad"); }
TEST(Fixtures, NondetBad) { expect_fixture_matches("nondet_bad"); }
TEST(Fixtures, NondetGood) { expect_fixture_matches("nondet_good"); }
TEST(Fixtures, UnitdimBad) { expect_fixture_matches("unitdim_bad"); }
TEST(Fixtures, UnitdimGood) { expect_fixture_matches("unitdim_good"); }
TEST(Fixtures, DeadapiBad) { expect_fixture_matches("deadapi_bad"); }
TEST(Fixtures, DeadapiGood) { expect_fixture_matches("deadapi_good"); }
TEST(Fixtures, UncheckedioBad) { expect_fixture_matches("uncheckedio_bad"); }
TEST(Fixtures, SimdBad) { expect_fixture_matches("simd_bad"); }
TEST(Fixtures, SimdGood) { expect_fixture_matches("simd_good"); }
TEST(Fixtures, UncheckedioGood) {
  expect_fixture_matches("uncheckedio_good");
}

// --- scope tree -----------------------------------------------------------

TEST(ScopeTree, DeclarationShadowsLibcName) {
  const auto toks = tokenize(
      "void f(std::size_t n) {\n"
      "  std::vector<double> time(n);\n"
      "  time[0] = 1.0;\n"
      "}\n");
  const ScopeTree tree = build_scope_tree(toks);
  // Find the second `time` token (the use on line 3).
  std::size_t use = toks.size();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text == "time" && toks[i].line == 3) use = i;
  }
  ASSERT_LT(use, toks.size());
  const ScopeVar* var = tree.lookup("time", use);
  ASSERT_NE(var, nullptr);
  EXPECT_NE(var->type.find("vector"), std::string::npos);
  EXPECT_FALSE(var->is_param);
  // The parameter resolves too.
  const ScopeVar* param = tree.lookup("n", use);
  ASSERT_NE(param, nullptr);
  EXPECT_TRUE(param->is_param);
}

TEST(ScopeTree, NamespaceClassFunctionNesting) {
  const auto toks = tokenize(
      "namespace densevlc::phy {\n"
      "class Codec {\n"
      " public:\n"
      "  int decode(int x) { return x; }\n"
      "};\n"
      "}  // namespace\n");
  const ScopeTree tree = build_scope_tree(toks);
  bool saw_ns = false, saw_class = false, saw_fn = false;
  for (const ScopeNode& n : tree.nodes) {
    if (n.kind == ScopeKind::kNamespace) saw_ns = true;
    if (n.kind == ScopeKind::kClass && n.name == "Codec") saw_class = true;
    if (n.kind == ScopeKind::kFunction && n.name == "decode") saw_fn = true;
  }
  EXPECT_TRUE(saw_ns);
  EXPECT_TRUE(saw_class);
  EXPECT_TRUE(saw_fn);
}

TEST(ScopeTree, UnitSuffixParsing) {
  EXPECT_EQ(unit_suffix_of("span_m"), "_m");
  EXPECT_EQ(unit_suffix_of("power_used_w_"), "_w");  // member underscore
  EXPECT_EQ(unit_suffix_of("count"), "");
  EXPECT_EQ(unit_suffix_of("bias_ma"), "_ma");
}

// --- project index --------------------------------------------------------

SourceFile indexed(const std::string& text, const std::string& rel) {
  SourceFile f;
  index_source(text, fs::path{"/r"} / rel, fs::path{"/r"}, f);
  return f;
}

TEST(ProjectIndex, HeaderSymbolsAndIncludeSpelling) {
  const SourceFile f = indexed(
      "#include \"common/rng.hpp\"\n"
      "namespace densevlc::phy {\n"
      "double helper(double x);\n"
      "inline double twice(double x) { return 2.0 * x; }\n"
      "}\n",
      "src/phy/helper.hpp");
  const FileSummary s = summarize(f, build_scope_tree(f.tokens));
  EXPECT_TRUE(s.is_header);
  ASSERT_EQ(s.includes.size(), 1u);
  EXPECT_EQ(s.includes[0].target, "common/rng.hpp");
  bool saw_decl = false, saw_def = false;
  for (const SymbolDecl& d : s.symbols) {
    if (d.name == "helper" && !d.is_definition) saw_decl = true;
    if (d.name == "twice" && d.is_definition) saw_def = true;
  }
  EXPECT_TRUE(saw_decl);
  EXPECT_TRUE(saw_def);
  EXPECT_EQ(ProjectIndex::include_spelling("src/phy/helper.hpp"),
            "phy/helper.hpp");
}

TEST(ProjectIndex, ExternalUsesExcludesOwnPair) {
  ProjectIndex index;
  {
    const SourceFile h = indexed("double helper(double x);\n",
                                 "src/phy/helper.hpp");
    index.files.push_back(summarize(h, build_scope_tree(h.tokens)));
  }
  {
    const SourceFile c = indexed("double helper(double x) { return x; }\n",
                                 "src/phy/helper.cpp");
    index.files.push_back(summarize(c, build_scope_tree(c.tokens)));
  }
  // Declaration + paired definition only: no external uses.
  EXPECT_EQ(index.external_uses("helper", "src/phy/helper.hpp"), 0u);
  {
    const SourceFile u = indexed("void go() { helper(1.0); }\n",
                                 "src/core/use.cpp");
    index.files.push_back(summarize(u, build_scope_tree(u.tokens)));
  }
  EXPECT_GT(index.external_uses("helper", "src/phy/helper.hpp"), 0u);
}

TEST(ProjectIndex, ExternalUsesSkipsTests) {
  ProjectIndex index;
  const auto add = [&index](const std::string& text, const std::string& rel) {
    const SourceFile f = indexed(text, rel);
    index.files.push_back(summarize(f, build_scope_tree(f.tokens)));
  };
  add("double helper(double x);\n", "src/phy/helper.hpp");
  add("TEST(H, H) { EXPECT_EQ(helper(1.0), 1.0); }\n",
      "tests/phy/test_helper.cpp");
  // A test is not a caller: the helper has no external use yet.
  EXPECT_EQ(index.external_uses("helper", "src/phy/helper.hpp"), 0u);
  add("void go() { helper(1.0); }\n", "bench/use.cpp");
  EXPECT_EQ(index.external_uses("helper", "src/phy/helper.hpp"), 1u);
}

}  // namespace
}  // namespace densevlc::analyze
