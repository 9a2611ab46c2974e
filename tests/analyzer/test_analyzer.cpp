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
#include <vector>

#include "analysis.hpp"
#include "baseline.hpp"
#include "cache.hpp"
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
TEST(Fixtures, DeterminismBad) { expect_fixture_matches("determinism_bad"); }
TEST(Fixtures, DeterminismGood) { expect_fixture_matches("determinism_good"); }
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

/// Pass filtering: the layering_bad fixture is clean when only the
/// conventions pass runs.
TEST(Fixtures, PassFilterRestrictsRules) {
  const fs::path dir = fixture_root() / "layering_bad";
  const AnalysisResult result = analyze_paths({dir}, dir, {"conventions"});
  EXPECT_TRUE(result.findings.empty());
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

TEST(ScopeTree, ParallelReduceSecondLambdaIsCombineBody) {
  const auto toks = tokenize(
      "double g(std::size_t n) {\n"
      "  return parallel_reduce(0, n, 0.0,\n"
      "      [&](std::size_t i) { return 1.0; },\n"
      "      [](double a, double b) { return a + b; });\n"
      "}\n");
  const ScopeTree tree = build_scope_tree(toks);
  std::size_t parallel = 0, combine = 0;
  for (const ScopeNode& n : tree.nodes) {
    if (n.kind == ScopeKind::kParallelBody) ++parallel;
    if (n.kind == ScopeKind::kCombineBody) ++combine;
  }
  EXPECT_EQ(parallel, 1u);
  EXPECT_EQ(combine, 1u);
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
  EXPECT_TRUE(index.is_called("helper"));
}

// --- incremental cache ----------------------------------------------------

CacheEntry sample_entry() {
  CacheEntry entry;
  entry.summary.rel = "src/a.cpp";
  entry.summary.module = "phy";
  entry.summary.is_header = false;
  entry.summary.includes.push_back({"common/rng.hpp", 3});
  entry.summary.waivers["units"].insert(7);
  entry.summary.symbols.push_back({"helper", 4, 2, false});
  entry.summary.called_names.insert("helper");
  entry.summary.ident_uses["helper"] = 2;
  entry.findings.push_back(
      {"banned", "src/a.cpp", 9, "rand", "message with\ttab and\nnewline"});
  entry.waived = 1;
  return entry;
}

TEST(Cache, EntryRoundTrips) {
  const CacheEntry entry = sample_entry();
  CacheEntry back;
  ASSERT_TRUE(parse_entry(serialize_entry(entry), back));
  EXPECT_EQ(back.summary.rel, entry.summary.rel);
  EXPECT_EQ(back.summary.module, entry.summary.module);
  ASSERT_EQ(back.summary.includes.size(), 1u);
  EXPECT_EQ(back.summary.includes[0].target, "common/rng.hpp");
  EXPECT_EQ(back.summary.waivers.at("units").count(7), 1u);
  ASSERT_EQ(back.summary.symbols.size(), 1u);
  EXPECT_EQ(back.summary.symbols[0].param_count, 2u);
  EXPECT_EQ(back.summary.ident_uses.at("helper"), 2u);
  ASSERT_EQ(back.findings.size(), 1u);
  EXPECT_EQ(back.findings[0].message, entry.findings[0].message);
  EXPECT_EQ(back.waived, 1u);
}

TEST(Cache, GarbledEntryIsAMiss) {
  CacheEntry back;
  EXPECT_FALSE(parse_entry("not a cache entry", back));
  EXPECT_FALSE(parse_entry("dvlca 1\nbogus record\n", back));
}

class CacheDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test case: ctest runs cases concurrently, and a
    // shared directory would let one TearDown eat another's entries.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string{"dvlc_analyze_cache_"} + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(CacheDirTest, HitOnSameKeyMissOnContentChange) {
  AnalysisCache cache{dir_, "config-a"};
  cache.store("src/a.cpp", "int x;", sample_entry());
  EXPECT_TRUE(cache.probe("src/a.cpp", "int x;").has_value());
  EXPECT_FALSE(cache.probe("src/a.cpp", "int y;").has_value());
}

TEST_F(CacheDirTest, ConfigChangeInvalidates) {
  // The config string folds in the pass version and the enabled pass
  // set; changing either must miss even for identical contents.
  {
    AnalysisCache cache{dir_, "dvlc-analyze-v3|conventions"};
    cache.store("src/a.cpp", "int x;", sample_entry());
  }
  {
    AnalysisCache warm{dir_, "dvlc-analyze-v3|conventions"};
    EXPECT_TRUE(warm.probe("src/a.cpp", "int x;").has_value());
  }
  {
    AnalysisCache flags{dir_, "dvlc-analyze-v3|conventions,api"};
    EXPECT_FALSE(flags.probe("src/a.cpp", "int x;").has_value());
  }
  {
    AnalysisCache version{dir_, "dvlc-analyze-v99|conventions"};
    EXPECT_FALSE(version.probe("src/a.cpp", "int x;").has_value());
  }
}

TEST_F(CacheDirTest, PathParticipatesInKey) {
  // Rules are path-sensitive (physics-core checks, module maps), so the
  // same bytes under another path must not share an entry.
  AnalysisCache cache{dir_, "config-a"};
  cache.store("src/a.cpp", "int x;", sample_entry());
  EXPECT_FALSE(cache.probe("src/b.cpp", "int x;").has_value());
}

TEST_F(CacheDirTest, WarmRunReanalyzesZeroFiles) {
  const fs::path dir = fixture_root() / "conventions_bad";
  AnalyzeOptions options;
  options.cache_dir = dir_;
  const AnalysisResult cold = analyze_paths({dir}, dir, options);
  EXPECT_EQ(cold.files_from_cache, 0u);
  const AnalysisResult warm = analyze_paths({dir}, dir, options);
  EXPECT_EQ(warm.files_from_cache, warm.files_scanned);
  EXPECT_GT(warm.files_scanned, 0u);
  // Cached and fresh analysis agree finding-for-finding.
  ASSERT_EQ(warm.findings.size(), cold.findings.size());
  for (std::size_t i = 0; i < warm.findings.size(); ++i) {
    EXPECT_EQ(warm.findings[i].rule, cold.findings[i].rule);
    EXPECT_EQ(warm.findings[i].file, cold.findings[i].file);
    EXPECT_EQ(warm.findings[i].line, cold.findings[i].line);
  }
  EXPECT_EQ(warm.waived, cold.waived);
}

// --- SARIF diff -----------------------------------------------------------

TEST(SarifDiff, OnlyNewFindingsSurvive) {
  const std::vector<RuleInfo> rules = {{"banned", "no rand"}};
  const std::vector<Finding> old_findings = {
      {"banned", "a.cpp", 3, "rand", "m"},
  };
  const auto old_fps =
      load_sarif_fingerprints(render_sarif(old_findings, rules));
  EXPECT_EQ(old_fps.size(), 1u);
  // Same finding on a DIFFERENT line still matches (fingerprints are
  // line-free); a second occurrence and a new rule are fresh.
  const std::vector<Finding> now = {
      {"banned", "a.cpp", 5, "rand", "m"},
      {"banned", "a.cpp", 9, "rand", "m"},
      {"units", "a.cpp", 2, "power", "m"},
  };
  const std::vector<Finding> fresh = sarif_diff(old_fps, now);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].line, 9u);  // second duplicate exceeds the old count
  EXPECT_EQ(fresh[1].rule, "units");
}

}  // namespace
}  // namespace densevlc::analyze
