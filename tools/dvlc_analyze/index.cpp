#include "index.hpp"

#include <set>

namespace densevlc::analyze {

namespace {

bool is_keywordish(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "static_assert" || s == "throw" ||
         s == "new" || s == "delete" || s == "case" || s == "co_return" ||
         s == "noexcept" || s == "defined" || s == "assert" ||
         s == "const" || s == "constexpr" || s == "operator";
}

/// True when toks[i] (an identifier followed by "(") looks like a
/// function *declaration head*: preceded by a type-ish token (identifier,
/// `>`, `&`, `*`) rather than by an expression/member context.
bool is_decl_head(const std::vector<Token>& toks, std::size_t i) {
  const std::size_t p = prev_code(toks, i);
  if (p == std::string::npos) return false;
  const Token& t = toks[p];
  if (t.kind == TokenKind::kIdentifier) {
    return !is_keywordish(t.text) && t.text != "return";
  }
  return t.text == ">" || t.text == "&" || t.text == "*" || t.text == "]]";
}

}  // namespace

FileSummary summarize(const SourceFile& f, const ScopeTree& scope) {
  FileSummary s;
  s.rel = f.rel;
  s.module = f.module;
  s.is_header = f.is_header;
  s.includes = f.includes;
  s.waivers = f.waivers;

  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    ++s.ident_uses[t.text];

    if (!f.is_header || is_keywordish(t.text)) continue;
    const std::size_t open = next_code(toks, i);
    if (!token_is(toks, open, "(")) continue;

    // Header function declarations: free functions only. A name inside a
    // class scope is a method; a name inside a function scope is a call.
    if (scope.inside(i, ScopeKind::kClass) ||
        scope.inside(i, ScopeKind::kFunction) ||
        scope.inside(i, ScopeKind::kLambda)) {
      continue;
    }
    if (!is_decl_head(toks, i)) continue;
    const std::size_t close = match_paren(toks, open);
    if (close == std::string::npos) continue;
    // Declaration or definition: `;` / `{` after optional specifiers and
    // a possible trailing return type.
    std::size_t k = next_code(toks, close);
    while (k != std::string::npos &&
           (token_is(toks, k, "const") || token_is(toks, k, "noexcept"))) {
      k = next_code(toks, k);
    }
    bool is_def = false;
    if (token_is(toks, k, "{")) {
      is_def = true;
    } else if (!token_is(toks, k, ";")) {
      continue;  // expression, macro, or something stranger
    }
    SymbolDecl d;
    d.name = t.text;
    d.line = t.line;
    d.is_definition = is_def;
    s.symbols.push_back(std::move(d));
  }
  return s;
}

namespace {

/// Path without extension ("src/channel/model" for src/channel/model.hpp).
std::string stem_of(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

}  // namespace

std::size_t ProjectIndex::external_uses(const std::string& name,
                                        const std::string& decl_rel) const {
  const std::string stem = stem_of(decl_rel);
  std::size_t total = 0;
  for (const FileSummary& f : files) {
    if (stem_of(f.rel) == stem) continue;  // own header/source pair
    if (f.module == "tests") continue;     // a test is not a caller
    const auto it = f.ident_uses.find(name);
    if (it != f.ident_uses.end()) total += it->second;
  }
  return total;
}

std::string ProjectIndex::include_spelling(const std::string& rel) {
  if (rel.rfind("src/", 0) == 0) return rel.substr(4);
  return rel;
}

std::map<std::string, std::vector<std::string>> ProjectIndex::build_edges()
    const {
  std::set<std::string> spellings;
  for (const FileSummary& f : files) {
    spellings.insert(include_spelling(f.rel));
  }
  std::map<std::string, std::vector<std::string>> edges;
  for (const FileSummary& f : files) {
    const std::string from = include_spelling(f.rel);
    for (const Include& inc : f.includes) {
      std::string to = inc.target;
      if (spellings.count(to) == 0) {
        // Same-directory include ("analysis.hpp" from tools/...).
        const std::size_t slash = from.rfind('/');
        if (slash != std::string::npos) {
          const std::string sibling = from.substr(0, slash + 1) + to;
          if (spellings.count(sibling) != 0) to = sibling;
        }
      }
      if (spellings.count(to) != 0) edges[from].push_back(to);
    }
  }
  return edges;
}

}  // namespace densevlc::analyze
