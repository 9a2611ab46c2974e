#include "source.hpp"

#include <cctype>

namespace densevlc::analyze {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// A literal-encoding prefix that may precede " or ' (or a raw string).
bool is_encoding_prefix(const std::string& s) {
  return s == "L" || s == "u" || s == "U" || s == "u8" || s == "R" ||
         s == "LR" || s == "uR" || s == "UR" || s == "u8R";
}

/// Source with backslash-newline splices removed, keeping a parallel
/// 1-based line number per remaining character.
struct Spliced {
  std::string text;
  std::vector<std::size_t> line;
};

Spliced splice_lines(const std::string& src) {
  Spliced out;
  out.text.reserve(src.size());
  out.line.reserve(src.size());
  std::size_t line = 1;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    // Backslash immediately before the line break: physical lines join.
    if (c == '\\') {
      std::size_t j = i + 1;
      if (j < src.size() && src[j] == '\r') ++j;
      if (j < src.size() && src[j] == '\n') {
        ++line;
        i = j;
        continue;
      }
    }
    out.text.push_back(c);
    out.line.push_back(line);
    if (c == '\n') ++line;
  }
  return out;
}

// Multi-character operators the rules care to see as one token. Longest
// match first. `::`, `[[`, `]]`, `->` are load-bearing for several rules;
// the compound assignment and comparison operators keep `x += 1` and
// `a == b` distinguishable from plain `=`.
const char* const kThreeCharOps[] = {"<<=", ">>=", "...", "->*"};
const char* const kTwoCharOps[] = {"::", "[[", "]]", "->", "+=", "-=", "*=",
                                   "/=", "%=", "&=", "|=", "^=", "==", "!=",
                                   "<=", ">=", "&&", "||", "++", "--"};

}  // namespace

std::vector<Token> tokenize(const std::string& src) {
  const Spliced sp = splice_lines(src);
  const std::string& s = sp.text;
  const std::size_t n = s.size();
  auto line_at = [&](std::size_t i) {
    return i < n ? sp.line[i] : (sp.line.empty() ? 1 : sp.line.back());
  };

  std::vector<Token> out;
  std::size_t i = 0;
  while (i < n) {
    const char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment (a spliced trailing backslash already joined lines).
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      std::size_t j = i + 2;
      while (j < n && s[j] != '\n') ++j;
      out.push_back({TokenKind::kComment, s.substr(i + 2, j - i - 2),
                     line_at(i)});
      i = j;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      std::size_t j = i + 2;
      while (j + 1 < n && !(s[j] == '*' && s[j + 1] == '/')) ++j;
      out.push_back({TokenKind::kComment, s.substr(i + 2, j - i - 2),
                     line_at(i)});
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // Identifier — possibly an encoding prefix of a string/char literal.
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(s[j])) ++j;
      const std::string ident = s.substr(i, j - i);
      if (j < n && (s[j] == '"' || s[j] == '\'') && is_encoding_prefix(ident)) {
        if (ident.back() == 'R' && s[j] == '"') {
          // Raw string literal: R"delim( ... )delim".
          const std::size_t start_line = line_at(i);
          std::size_t k = j + 1;
          std::string delim;
          while (k < n && s[k] != '(' && s[k] != '"' && delim.size() <= 16) {
            delim.push_back(s[k++]);
          }
          const std::string closer = ")" + delim + "\"";
          const std::size_t end = s.find(closer, k);
          const std::size_t stop =
              end == std::string::npos ? n : end + closer.size();
          out.push_back({TokenKind::kString, "", start_line});
          i = stop;
          continue;
        }
        // Prefixed ordinary literal: fall through to the quote scanner
        // below with the prefix consumed (no separate identifier token).
        i = j;
        continue;
      }
      out.push_back({TokenKind::kIdentifier, ident, line_at(i)});
      i = j;
      continue;
    }
    // Unprefixed raw strings never reach here (R is an identifier char);
    // ordinary string / char literal:
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::size_t start_line = line_at(i);
      std::size_t j = i + 1;
      std::string contents;
      while (j < n && s[j] != quote && s[j] != '\n') {
        if (s[j] == '\\' && j + 1 < n) {
          contents.push_back(s[j + 1]);
          j += 2;
          continue;
        }
        contents.push_back(s[j]);
        ++j;
      }
      out.push_back({TokenKind::kString, contents, start_line});
      i = (j < n && s[j] == quote) ? j + 1 : j;
      continue;
    }
    // pp-number: digits, idents, dots, digit separators, sign after
    // e/E/p/P. A separator only counts when a digit or letter follows,
    // so `1'` at the end of a macro arg cannot eat a real char literal.
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(s[i + 1])) != 0)) {
      std::size_t j = i;
      while (j < n) {
        const char d = s[j];
        if (is_ident_char(d) || d == '.') {
          ++j;
        } else if (d == '\'' && j + 1 < n && is_ident_char(s[j + 1]) &&
                   j > i && is_ident_char(s[j - 1])) {
          ++j;  // digit separator
        } else if ((d == '+' || d == '-') && j > i &&
                   (s[j - 1] == 'e' || s[j - 1] == 'E' || s[j - 1] == 'p' ||
                    s[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      out.push_back({TokenKind::kNumber, s.substr(i, j - i), line_at(i)});
      i = j;
      continue;
    }
    // Punctuation, longest operator first.
    bool matched = false;
    if (i + 2 < n) {
      const std::string three = s.substr(i, 3);
      for (const char* op : kThreeCharOps) {
        if (three == op) {
          out.push_back({TokenKind::kPunct, three, line_at(i)});
          i += 3;
          matched = true;
          break;
        }
      }
    }
    if (matched) continue;
    if (i + 1 < n) {
      const std::string two = s.substr(i, 2);
      for (const char* op : kTwoCharOps) {
        if (two == op) {
          out.push_back({TokenKind::kPunct, two, line_at(i)});
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (matched) continue;
    out.push_back({TokenKind::kPunct, std::string(1, c), line_at(i)});
    ++i;
  }
  return out;
}

WaiverMap collect_waivers(const std::vector<Token>& tokens,
                          std::vector<WaiverProblem>& problems) {
  WaiverMap waivers;
  const std::string tag = "DVLC_LINT_WAIVE(";
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment) continue;
    std::size_t pos = 0;
    while ((pos = t.text.find(tag, pos)) != std::string::npos) {
      const std::size_t open = pos + tag.size();
      const std::size_t close = t.text.find(')', open);
      if (close == std::string::npos) break;
      const std::string rule = t.text.substr(open, close - open);
      pos = close;
      // The reason after "): " is mandatory: a waiver without a reason is
      // unauditable.
      const std::size_t after = close + 1;
      const bool has_colon = after < t.text.size() && t.text[after] == ':';
      std::size_t text_at = after + 1;
      while (text_at < t.text.size() &&
             std::isspace(static_cast<unsigned char>(t.text[text_at])) != 0) {
        ++text_at;
      }
      if (!has_colon || text_at >= t.text.size()) {
        problems.push_back({t.line, "DVLC_LINT_WAIVE(" + rule +
                                        ") is missing its `: reason` tail"});
        continue;
      }
      waivers[rule].insert(t.line);
    }
  }
  return waivers;
}

std::string module_of(const std::string& rel) {
  auto first_segment = [](const std::string& p) -> std::string {
    const std::size_t slash = p.find('/');
    return slash == std::string::npos ? std::string{} : p.substr(0, slash);
  };
  const std::string top = first_segment(rel);
  if (top == "src") {
    const std::string rest = rel.substr(4);
    const std::string mod = first_segment(rest);
    return mod;
  }
  if (top == "bench" || top == "tools" || top == "tests") return top;
  return {};
}

void index_source(const std::string& text, const std::filesystem::path& path,
                  const std::filesystem::path& root, SourceFile& out) {
  out.abs_path = path;
  std::error_code ec;
  const auto rel = std::filesystem::proximate(path, root, ec);
  out.rel = ec ? path.generic_string() : rel.generic_string();
  if (out.rel.rfind("../", 0) == 0) out.rel = path.generic_string();
  out.module = module_of(out.rel);
  const auto ext = path.extension();
  out.is_header = ext == ".hpp" || ext == ".h" || ext == ".hh";
  out.tokens = tokenize(text);
  out.waivers = collect_waivers(out.tokens, out.waiver_problems);

  // Quoted #include directives: `#` `include` <string token>.
  const auto& toks = out.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kPunct && toks[i].text == "#" &&
        toks[i + 1].kind == TokenKind::kIdentifier &&
        toks[i + 1].text == "include" &&
        toks[i + 2].kind == TokenKind::kString) {
      out.includes.push_back({toks[i + 2].text, toks[i + 2].line});
    }
  }
}

std::size_t prev_code(const std::vector<Token>& toks, std::size_t i) {
  while (i > 0) {
    --i;
    if (is_code(toks[i])) return i;
  }
  return std::string::npos;
}

std::size_t next_code(const std::vector<Token>& toks, std::size_t i) {
  for (++i; i < toks.size(); ++i) {
    if (is_code(toks[i])) return i;
  }
  return std::string::npos;
}

bool token_is(const std::vector<Token>& toks, std::size_t i,
              const char* text) {
  return i != std::string::npos && i < toks.size() && toks[i].text == text;
}

bool ends_with(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool at_decl_start(const std::vector<Token>& toks, std::size_t i) {
  const std::size_t p = prev_code(toks, i);
  if (p == std::string::npos) return true;
  const Token& t = toks[p];
  if (t.kind == TokenKind::kPunct &&
      (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ":")) {
    return true;
  }
  if (t.kind == TokenKind::kIdentifier &&
      (t.text == "static" || t.text == "inline" || t.text == "constexpr" ||
       t.text == "mutable" || t.text == "virtual" || t.text == "explicit")) {
    return at_decl_start(toks, p);
  }
  return t.kind == TokenKind::kPunct && t.text == "]]";  // after an attribute
}

std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::size_t match_brace(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

}  // namespace densevlc::analyze
