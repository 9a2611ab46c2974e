#include "parse.hpp"

#include <algorithm>

namespace densevlc::analyze {

namespace {

// Recognized unit suffixes, longest-match-first (so `_mm2` wins over
// `_m2` wins over `_m`). Kept in sync with the conventions pass and
// docs/static_analysis.md.
const char* const kUnitSuffixes[] = {
    "_per_hz", "_per_w", "_per_s", "_per_m", "_kbps", "_mbps", "_mm2",
    "_khz",    "_mhz",   "_ghz",   "_bps",   "_lux",  "_dbm",  "_rad",
    "_deg",    "_ohm",   "_ppm",   "_pct",   "_ms",   "_us",   "_ns",
    "_hz",     "_mw",    "_lm",    "_m2",    "_mm",   "_cm",   "_ma",
    "_a2",     "_db",    "_s",     "_w",     "_m",    "_a",    "_v",
    "_j",
};

bool is_statement_keyword(const std::string& s) {
  return s == "return" || s == "if" || s == "while" || s == "switch" ||
         s == "case" || s == "break" || s == "continue" || s == "goto" ||
         s == "delete" || s == "new" || s == "throw" || s == "using" ||
         s == "typedef" || s == "template" || s == "typename" ||
         s == "public" || s == "private" || s == "protected" ||
         s == "friend" || s == "operator" || s == "sizeof" ||
         s == "static_assert" || s == "else" || s == "do" || s == "try" ||
         s == "catch" || s == "namespace" || s == "class" || s == "struct" ||
         s == "enum" || s == "union" || s == "co_return" || s == "co_await";
}

bool is_decl_specifier(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "static" ||
         s == "mutable" || s == "inline" || s == "thread_local" ||
         s == "volatile" || s == "register" || s == "extern";
}

bool is_control_intro(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch";
}

/// Backward brace/paren matcher: toks[close] is ")" (or "]"), returns the
/// index of the matching opener, or npos.
std::size_t match_backward(const std::vector<Token>& toks, std::size_t close,
                           const char* open_c, const char* close_c) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == close_c) ++depth;
    if (toks[i].text == open_c) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// Parses one parameter list toks(open..close), appending a ScopeVar per
/// named parameter (type = everything before the name).
void collect_params(const std::vector<Token>& toks, std::size_t open,
                    std::size_t close, std::vector<ScopeVar>& out) {
  std::size_t start = open + 1;
  int angle = 0, paren = 0;
  for (std::size_t i = open + 1; i <= close; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "<") ++angle;
      if (t.text == ">") angle = std::max(0, angle - 1);
      if (t.text == "(" || t.text == "[") ++paren;
      if (t.text == ")" || t.text == "]") --paren;
    }
    const bool at_end = i == close && paren < 0;
    if (!at_end && !(t.text == "," && angle == 0 && paren == 0)) continue;
    // One parameter in [start, i). Truncate a default argument.
    std::size_t stop = i;
    for (std::size_t j = start; j < stop; ++j) {
      if (toks[j].kind == TokenKind::kPunct && toks[j].text == "=") {
        stop = j;
        break;
      }
    }
    std::size_t name_idx = std::string::npos;
    for (std::size_t j = start; j < stop; ++j) {
      if (toks[j].kind == TokenKind::kIdentifier) name_idx = j;
    }
    // An unnamed parameter's last identifier is part of the type; treat a
    // one-token "name" with nothing before it as unnamed.
    if (name_idx != std::string::npos && name_idx > start) {
      ScopeVar v;
      v.name = toks[name_idx].text;
      for (std::size_t j = start; j < name_idx; ++j) {
        if (toks[j].kind == TokenKind::kComment) continue;
        if (!v.type.empty() && toks[j].kind == TokenKind::kIdentifier &&
            std::isalnum(static_cast<unsigned char>(v.type.back())) != 0) {
          v.type += ' ';
        }
        v.type += toks[j].text;
      }
      v.suffix = unit_suffix_of(v.name);
      v.line = toks[name_idx].line;
      v.decl_tok = name_idx;
      v.is_param = true;
      out.push_back(std::move(v));
    }
    start = i + 1;
  }
}

/// What a "{" opens. Also yields the scope name and (for functions and
/// lambdas) the parameter-list range.
struct BraceInfo {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;
  std::size_t params_open = std::string::npos;
  std::size_t params_close = std::string::npos;
};

BraceInfo classify_brace(const std::vector<Token>& toks, std::size_t open) {
  BraceInfo info;
  std::size_t p = prev_code(toks, open);
  if (p == std::string::npos) return info;

  // namespace X {  /  namespace a::b {  /  namespace {
  if (toks[p].kind == TokenKind::kIdentifier && toks[p].text == "namespace") {
    info.kind = ScopeKind::kNamespace;
    return info;
  }
  if (toks[p].kind == TokenKind::kIdentifier) {
    // Walk back over the qualified name: ident (:: ident)* .
    std::string name = toks[p].text;
    std::size_t q = prev_code(toks, p);
    while (q != std::string::npos && toks[q].text == "::") {
      const std::size_t r = prev_code(toks, q);
      if (r == std::string::npos || toks[r].kind != TokenKind::kIdentifier) {
        break;
      }
      name = toks[r].text + "::" + name;
      q = prev_code(toks, r);
    }
    if (q != std::string::npos && toks[q].text == "namespace") {
      info.kind = ScopeKind::kNamespace;
      info.name = name;
      return info;
    }
  }

  // class / struct / enum / union ... { — scan back to the keyword,
  // stopping at any token that ends the candidate head.
  {
    std::size_t b = open;
    for (int steps = 0; steps < 24; ++steps) {
      b = prev_code(toks, b);
      if (b == std::string::npos) break;
      const std::string& s = toks[b].text;
      if (s == ";" || s == "{" || s == "}" || s == ")" || s == "=" ||
          s == "," || s == "(" || s == "return") {
        break;
      }
      if (s == "class" || s == "struct" || s == "enum" || s == "union") {
        info.kind = ScopeKind::kClass;
        const std::size_t n = next_code(toks, b);
        if (n != std::string::npos &&
            toks[n].kind == TokenKind::kIdentifier && toks[n].text != "class") {
          info.name = toks[n].text;
        } else if (n != std::string::npos && toks[n].text == "class") {
          // enum class Name
          const std::size_t n2 = next_code(toks, n);
          if (n2 != std::string::npos &&
              toks[n2].kind == TokenKind::kIdentifier) {
            info.name = toks[n2].text;
          }
        }
        return info;
      }
    }
  }

  // Skip trailing cv-/ref-/virt-specifiers before the body.
  while (p != std::string::npos &&
         (toks[p].text == "const" || toks[p].text == "noexcept" ||
          toks[p].text == "override" || toks[p].text == "final" ||
          toks[p].text == "mutable")) {
    p = prev_code(toks, p);
  }
  if (p == std::string::npos) return info;

  // Constructor member-init list: `) : a_{x}, b_(y) {` — walk the items
  // backward until the `:` that follows the parameter list.
  std::size_t probe = p;
  for (int items = 0; items < 32; ++items) {
    if (probe == std::string::npos) break;
    if (toks[probe].text != "}" && toks[probe].text != ")") break;
    const bool braces = toks[probe].text == "}";
    const std::size_t opener =
        match_backward(toks, probe, braces ? "{" : "(", braces ? "}" : ")");
    if (opener == std::string::npos) break;
    const std::size_t ident = prev_code(toks, opener);
    if (ident == std::string::npos ||
        toks[ident].kind != TokenKind::kIdentifier) {
      break;
    }
    const std::size_t sep = prev_code(toks, ident);
    if (sep == std::string::npos) break;
    if (toks[sep].text == ",") {
      probe = prev_code(toks, sep);
      // the next item closer
      if (probe == std::string::npos) break;
      continue;
    }
    if (toks[sep].text == ":") {
      const std::size_t fn_close = prev_code(toks, sep);
      if (fn_close != std::string::npos && toks[fn_close].text == ")") {
        p = fn_close;  // fall through to the function-paren case below
      }
      break;
    }
    break;
  }

  if (toks[p].text == ")") {
    const std::size_t open_paren = match_backward(toks, p, "(", ")");
    if (open_paren == std::string::npos) return info;
    const std::size_t before = prev_code(toks, open_paren);
    if (before == std::string::npos) return info;
    if (toks[before].text == "]") {
      info.kind = ScopeKind::kLambda;
      info.params_open = open_paren;
      info.params_close = p;
      return info;
    }
    if (toks[before].kind == TokenKind::kIdentifier &&
        !is_control_intro(toks[before].text)) {
      info.kind = ScopeKind::kFunction;
      info.name = toks[before].text;
      info.params_open = open_paren;
      info.params_close = p;
      return info;
    }
    return info;  // control statement or expression: plain block
  }
  if (toks[p].text == "]") {
    // Capture-only lambda `[&]{ ... }`.
    info.kind = ScopeKind::kLambda;
    return info;
  }
  return info;
}

/// Collects the variables declared directly in `node` (child scope
/// ranges excluded).
void collect_scope_vars(const std::vector<Token>& toks, const ScopeTree& tree,
                        ScopeNode& node) {
  const bool function_like = node.kind == ScopeKind::kFunction ||
                             node.kind == ScopeKind::kLambda ||
                             node.kind == ScopeKind::kBlock;
  // Child ranges to skip, in order.
  std::vector<std::pair<std::size_t, std::size_t>> holes;
  for (std::size_t c : node.children) {
    holes.emplace_back(tree.nodes[c].open_tok, tree.nodes[c].close_tok);
  }
  std::size_t hole = 0;
  const std::size_t begin = node.open_tok == 0 && node.kind == ScopeKind::kFile
                                ? 0
                                : node.open_tok + 1;
  for (std::size_t i = begin; i < node.close_tok; ++i) {
    while (hole < holes.size() && i > holes[hole].second) ++hole;
    if (hole < holes.size() && i >= holes[hole].first) {
      i = holes[hole].second;
      continue;
    }
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (is_statement_keyword(t.text)) {
      // Skip to the end of the statement.
      while (i < node.close_tok && toks[i].text != ";" &&
             toks[i].text != "{") {
        ++i;
      }
      if (i < node.close_tok && toks[i].text == "{") --i;  // reprocess hole
      continue;
    }
    // Declarations start after a statement boundary or at a for-init /
    // range-for / condition opener.
    const std::size_t prev = prev_code(toks, i);
    const bool at_start =
        prev == std::string::npos || prev < begin ||
        toks[prev].text == ";" || toks[prev].text == "{" ||
        toks[prev].text == "}" || toks[prev].text == "(" ||
        toks[prev].text == ":";
    if (!at_start) continue;

    std::size_t j = i;
    // Leading specifiers.
    while (j < node.close_tok && toks[j].kind == TokenKind::kIdentifier &&
           is_decl_specifier(toks[j].text)) {
      j = next_code(toks, j);
      if (j == std::string::npos) break;
    }
    if (j == std::string::npos || j >= node.close_tok ||
        toks[j].kind != TokenKind::kIdentifier ||
        is_statement_keyword(toks[j].text)) {
      continue;
    }

    // auto [a, b] = ... structured binding.
    if (toks[j].text == "auto" && token_is(toks, next_code(toks, j), "[")) {
      std::size_t b = next_code(toks, j);
      for (std::size_t q = b + 1; q < node.close_tok && toks[q].text != "]";
           ++q) {
        if (toks[q].kind == TokenKind::kIdentifier) {
          ScopeVar v;
          v.name = toks[q].text;
          v.type = "auto";
          v.suffix = unit_suffix_of(v.name);
          v.line = toks[q].line;
          v.decl_tok = q;
          node.vars.push_back(std::move(v));
        }
      }
      continue;
    }

    // Type chain: ident (:: ident)* with balanced <...> after any part,
    // then &/*/&& qualifiers, then the declared name.
    std::string type = toks[j].text;
    std::size_t k = next_code(toks, j);
    bool broken = false;
    while (k != std::string::npos && k < node.close_tok) {
      if (toks[k].text == "::") {
        const std::size_t m = next_code(toks, k);
        if (m == std::string::npos || m >= node.close_tok ||
            toks[m].kind != TokenKind::kIdentifier) {
          broken = true;
          break;
        }
        type += "::" + toks[m].text;
        k = next_code(toks, m);
        continue;
      }
      if (toks[k].text == "<") {
        int depth = 0;
        std::size_t m = k;
        std::string args;
        for (; m < node.close_tok; ++m) {
          if (toks[m].kind == TokenKind::kComment) continue;
          if (toks[m].text == "<") ++depth;
          if (toks[m].text == ">") {
            --depth;
            if (depth == 0) break;
          }
          if (toks[m].text == ";" || toks[m].text == "{") {
            depth = -1;  // not a template argument list after all
            break;
          }
          if (!args.empty() && toks[m].kind == TokenKind::kIdentifier &&
              std::isalnum(static_cast<unsigned char>(args.back())) != 0) {
            args += ' ';
          }
          if (m > k) args += toks[m].text;
        }
        if (depth != 0) {
          broken = true;
          break;
        }
        type += "<" + args + ">";
        k = next_code(toks, m);
        continue;
      }
      break;
    }
    if (broken || k == std::string::npos || k >= node.close_tok) continue;
    while (k < node.close_tok &&
           (toks[k].text == "&" || toks[k].text == "*" ||
            toks[k].text == "&&")) {
      type += toks[k].text;
      k = next_code(toks, k);
      if (k == std::string::npos) break;
    }
    if (k == std::string::npos || k >= node.close_tok ||
        toks[k].kind != TokenKind::kIdentifier ||
        is_statement_keyword(toks[k].text) ||
        is_decl_specifier(toks[k].text)) {
      continue;
    }
    const std::size_t name_idx = k;
    const std::size_t after = next_code(toks, k);
    if (after == std::string::npos || after >= node.close_tok + 1) continue;
    const std::string& term = toks[after].text;
    const bool decl_term = term == "=" || term == "{" || term == ";" ||
                           term == ":" || term == "," ||
                           (term == "(" && function_like);
    // `Type name(args)` outside function bodies is a function
    // declaration, not a variable.
    if (!decl_term) continue;
    ScopeVar v;
    v.name = toks[name_idx].text;
    v.type = type;
    v.suffix = unit_suffix_of(v.name);
    v.line = toks[name_idx].line;
    v.decl_tok = name_idx;
    node.vars.push_back(std::move(v));
    i = name_idx;
  }
}

}  // namespace

std::string unit_suffix_of(const std::string& name) {
  std::string n = name;
  if (!n.empty() && n.back() == '_') n.pop_back();
  for (const char* s : kUnitSuffixes) {
    const std::string suffix{s};
    if (n.size() > suffix.size() && ends_with(n, suffix)) return suffix;
  }
  return "";
}

std::size_t ScopeTree::innermost(std::size_t tok) const {
  if (nodes.empty()) return 0;
  std::size_t at = 0;
  bool descended = true;
  while (descended) {
    descended = false;
    for (std::size_t c : nodes[at].children) {
      if (nodes[c].open_tok < tok && tok < nodes[c].close_tok) {
        at = c;
        descended = true;
        break;
      }
    }
  }
  return at;
}

const ScopeVar* ScopeTree::lookup(const std::string& name,
                                  std::size_t tok) const {
  if (nodes.empty()) return nullptr;
  std::size_t at = innermost(tok);
  while (true) {
    const ScopeNode& n = nodes[at];
    for (const ScopeVar& v : n.vars) {
      if (v.name == name && v.decl_tok <= tok) return &v;
    }
    if (at == 0) return nullptr;
    at = n.parent;
  }
}

bool ScopeTree::inside(std::size_t tok, ScopeKind k) const {
  return enclosing(tok, k) != std::string::npos;
}

std::size_t ScopeTree::enclosing(std::size_t tok, ScopeKind k) const {
  if (nodes.empty()) return std::string::npos;
  std::size_t at = innermost(tok);
  while (true) {
    if (nodes[at].kind == k) return at;
    if (at == 0) return std::string::npos;
    at = nodes[at].parent;
  }
}

ScopeTree build_scope_tree(const std::vector<Token>& toks) {
  ScopeTree tree;
  ScopeNode root;
  root.kind = ScopeKind::kFile;
  root.open_tok = 0;
  root.close_tok = toks.size();
  root.line = 1;
  root.parent = 0;
  tree.nodes.push_back(std::move(root));

  std::vector<std::size_t> stack{0};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "{") {
      ScopeNode node;
      const BraceInfo info = classify_brace(toks, i);
      node.kind = info.kind;
      node.name = info.name;
      node.open_tok = i;
      node.close_tok = toks.size();  // patched on close
      node.line = t.line;
      node.parent = stack.back();
      if (info.params_open != std::string::npos &&
          info.params_close != std::string::npos) {
        collect_params(toks, info.params_open, info.params_close, node.vars);
      }
      const std::size_t idx = tree.nodes.size();
      tree.nodes[stack.back()].children.push_back(idx);
      tree.nodes.push_back(std::move(node));
      stack.push_back(idx);
    } else if (t.text == "}") {
      if (stack.size() > 1) {
        tree.nodes[stack.back()].close_tok = i;
        stack.pop_back();
      }
    }
  }

  // Bottom-up variable collection (children already have final ranges).
  for (std::size_t i = tree.nodes.size(); i-- > 0;) {
    collect_scope_vars(toks, tree, tree.nodes[i]);
  }
  return tree;
}

}  // namespace densevlc::analyze
