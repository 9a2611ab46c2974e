// Shared lexer and per-file index for dvlc_analyze.
//
// Every pass works off the same tokenization, so the lexer is the one
// place that has to get C++ lexical structure right:
//
//   - string/char literal *contents* are swallowed (kept only for
//     #include targets), so nothing inside them can match a rule;
//   - raw string literals (R"( ... )", including LR/uR/UR/u8R prefixes
//     and custom delimiters) are one opaque token attributed to their
//     first line;
//   - digit separators (1'000'000) stay inside one pp-number token and
//     never open a phantom char literal;
//   - backslash line continuations are spliced before tokenization (with
//     line numbers preserved), so a continued `//` comment really does
//     swallow its next line and a spliced identifier is one token;
//   - comments are kept as tokens — waivers live in them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace densevlc::analyze {

enum class TokenKind {
  kIdentifier,
  kNumber,
  kString,   // string or char literal; text = contents (delimiters stripped)
  kPunct,
  kComment,  // line or block comment, text without delimiters
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  std::size_t line = 0;  // 1-based line where the token starts
};

/// Tokenizes C++ source per the contract above.
std::vector<Token> tokenize(const std::string& src);

// --- waivers ---------------------------------------------------------------

/// Lines waived per rule. A waiver covers its own line and the line
/// directly below it.
using WaiverMap = std::map<std::string, std::set<std::size_t>>;

/// A malformed waiver comment (missing the `: reason` tail).
struct WaiverProblem {
  std::size_t line = 0;
  std::string detail;
};

/// Collects waivers from comment tokens only. A waiver is a comment
/// holding DVLC_LINT_WAIVE, the rule id in parentheses, a colon and a
/// reason (docs/static_analysis.md); the reason is mandatory. Malformed
/// waivers are appended to `problems`. Rule ids are not checked here:
/// analyze_paths reports ids that name no rule.
WaiverMap collect_waivers(const std::vector<Token>& tokens,
                          std::vector<WaiverProblem>& problems);

// --- per-file index --------------------------------------------------------

/// A quoted #include directive.
struct Include {
  std::string target;    // path between the quotes, verbatim
  std::size_t line = 0;
};

/// One scanned file plus everything the passes need to know about it.
struct SourceFile {
  std::filesystem::path abs_path;
  std::string rel;       // path relative to the analysis root (generic form)
  std::string module;    // "common", "phy", ..., "bench"; "" when unmapped
  bool is_header = false;
  std::vector<Token> tokens;
  std::vector<Include> includes;  // quoted includes only
  WaiverMap waivers;
  std::vector<WaiverProblem> waiver_problems;
};

/// Indexes one file's source text: tokenizes it and collects its
/// waivers and includes.
void index_source(const std::string& text, const std::filesystem::path& path,
                  const std::filesystem::path& root, SourceFile& out);

/// Maps a root-relative path to its layering module: src/<m>/... -> m,
/// bench/... -> "bench", tools/... -> "tools", tests/... -> "tests",
/// anything else -> "".
std::string module_of(const std::string& rel);

// --- small token helpers shared by the passes ------------------------------

inline bool is_code(const Token& t) { return t.kind != TokenKind::kComment; }

/// Index of the previous non-comment token, or npos.
std::size_t prev_code(const std::vector<Token>& toks, std::size_t i);

/// Index of the next non-comment token, or npos.
std::size_t next_code(const std::vector<Token>& toks, std::size_t i);

bool token_is(const std::vector<Token>& toks, std::size_t i, const char* text);

bool ends_with(const std::string& name, const std::string& suffix);

/// True when toks[i] begins a declaration: preceded by nothing, a
/// statement/body boundary, an access specifier colon, or a specifier
/// keyword that itself begins one.
bool at_decl_start(const std::vector<Token>& toks, std::size_t i);

/// Given toks[open] == "(", returns the index of the matching ")" (or
/// npos). Handles nesting; `>>` counts as two in angle contexts only, so
/// this is plain paren matching.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open);

/// Given toks[open] == "{", returns the index of the matching "}".
std::size_t match_brace(const std::vector<Token>& toks, std::size_t open);

}  // namespace densevlc::analyze
