// API-discipline pass: the zero-allocation call surface follows two
// conventions, checked file by file:
//
//   api-scratch-ref        scratch structs (types named *Scratch) are
//                          taken by non-const reference — by-value copies
//                          or const references defeat buffer reuse.
//   api-assert-precondition physics entry points (functions in the
//                          physics core taking typed quantities) validate
//                          their inputs with DVLC_ASSERT / DVLC_EXPECT;
//                          a silent NaN is the hardest bug this repo
//                          produces.
#include <algorithm>
#include <string>

#include "analysis.hpp"

namespace densevlc::analyze {
namespace {

/// Typed quantity aliases from common/quantity.hpp.
const char* const kQuantityAliases[] = {
    "Meters",       "SquareMeters",   "Seconds",
    "Hertz",        "MetersPerSecond", "Amperes",
    "SquareAmperes", "Watts",          "Joules",
    "Volts",        "Ohms",           "Lumens",
    "Lux",          "LumensPerWatt",  "AmperesPerWatt",
    "Bits",         "BitsPerSecond",  "AmpsSquaredPerHertz",
    "Quantity",
};

bool is_quantity_alias(const std::string& s) {
  return std::any_of(std::begin(kQuantityAliases), std::end(kQuantityAliases),
                     [&](const char* a) { return s == a; });
}

bool is_scratch_type(const std::string& s) {
  return s == "Scratch" || (ends_with(s, "Scratch") && s.size() > 7);
}

bool in_physics_core(const std::string& rel) {
  for (const char* dir : {"optics/", "channel/", "illum/", "alloc/"}) {
    if (rel.find(std::string("/") + dir) != std::string::npos ||
        rel.rfind(dir, 0) == 0) {
      return true;
    }
  }
  return rel.find("phy/frontend.") != std::string::npos ||
         rel.find("core/trace.") != std::string::npos;
}

bool is_control_keyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "static_assert" || s == "throw" ||
         s == "new" || s == "delete" || s == "case" || s == "co_return" ||
         s == "noexcept" || s == "defined" || s == "assert";
}

class ApiPass final : public Pass {
 public:
  const char* name() const override { return "api"; }

  std::vector<RuleInfo> rules() const override {
    return {
        {"api-scratch-ref",
         "*Scratch parameters are taken by non-const reference"},
        {"api-assert-precondition",
         "physics entry points taking quantities assert preconditions"},
    };
  }

  void run_file(const SourceFile& f, const ScopeTree& scope,
                Sink& sink) const override {
    (void)scope;
    check_scratch_params(f, sink);
    if (in_physics_core(f.rel)) check_preconditions(f, sink);
  }

 private:
  void check_scratch_params(const SourceFile& f, Sink& sink) const {
    const auto& toks = f.tokens;
    int paren_depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(") ++paren_depth;
        if (t.text == ")") paren_depth = std::max(0, paren_depth - 1);
        continue;
      }
      if (t.kind != TokenKind::kIdentifier || !is_scratch_type(t.text) ||
          paren_depth == 0) {
        continue;
      }
      const std::size_t after = next_code(toks, i);
      if (after == std::string::npos) continue;
      // Was this parameter declared const? Scan back to the start of the
      // parameter (a `,` or the opening paren).
      bool is_const = false;
      for (std::size_t b = i; b > 0;) {
        b = prev_code(toks, b);
        if (b == std::string::npos) break;
        const std::string& s = toks[b].text;
        if (s == "," || s == "(" || s == ";" || s == "{" || s == "}") break;
        if (s == "const") is_const = true;
      }
      if (toks[after].text == "&" && is_const) {
        sink.report(f, t.line, "api-scratch-ref", t.text,
                    "'" + t.text +
                        "' is taken by const reference; scratch structs "
                        "are mutable working memory and must be non-const");
        continue;
      }
      if (toks[after].kind == TokenKind::kIdentifier) {
        sink.report(f, t.line, "api-scratch-ref", t.text,
                    "'" + t.text +
                        "' is passed by value; copying scratch defeats "
                        "buffer reuse — take it by non-const reference");
      }
    }
  }

  void check_preconditions(const SourceFile& f, Sink& sink) const {
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          is_control_keyword(toks[i].text)) {
        continue;
      }
      const std::size_t open = next_code(toks, i);
      if (!token_is(toks, open, "(")) continue;
      const std::size_t close = match_paren(toks, open);
      if (close == std::string::npos) continue;
      // Definition? Allow trailing cv/ref qualifiers, then require `{`.
      std::size_t k = next_code(toks, close);
      while (k != std::string::npos &&
             (token_is(toks, k, "const") || token_is(toks, k, "noexcept") ||
              token_is(toks, k, "override") || token_is(toks, k, "final"))) {
        k = next_code(toks, k);
      }
      if (!token_is(toks, k, "{")) continue;
      // Quantity-typed parameter present?
      bool has_quantity_param = false;
      for (std::size_t q = open + 1; q < close; ++q) {
        if (toks[q].kind == TokenKind::kIdentifier &&
            is_quantity_alias(toks[q].text)) {
          has_quantity_param = true;
          break;
        }
      }
      if (!has_quantity_param) continue;
      const std::size_t body_close = match_brace(toks, k);
      if (body_close == std::string::npos) continue;
      std::size_t code_tokens = 0;
      bool asserted = false;
      for (std::size_t b = k + 1; b < body_close; ++b) {
        if (!is_code(toks[b])) continue;
        ++code_tokens;
        if (toks[b].text == "DVLC_ASSERT" || toks[b].text == "DVLC_EXPECT") {
          asserted = true;
        }
      }
      // Trivial forwarding bodies (one return statement) are exempt: the
      // callee asserts.
      if (code_tokens < 16 || asserted) continue;
      sink.report(f, toks[i].line, "api-assert-precondition", toks[i].text,
                  "physics entry point '" + toks[i].text +
                      "' takes typed quantities but asserts no "
                      "preconditions; add DVLC_ASSERT on its domain "
                      "(positivity, finiteness, range) or waive with a "
                      "reason");
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_api_pass() { return std::make_unique<ApiPass>(); }

}  // namespace densevlc::analyze
