// Dead-API pass: cross-TU liveness over the project symbol index.
//
//   dead-public-api  a free function declared in a src/ header is used
//                    nowhere outside its own header/source pair — the
//                    symbol's only occurrences are its declaration (and,
//                    for non-inline functions, the one definition in the
//                    paired .cpp). "Used by its own header" (an inline
//                    helper another inline function calls) clears it, as
//                    does any mention elsewhere in the analyzed tree
//                    outside tests/. A mention in tests/ is not a use:
//                    library code that only its own tests call is dead
//                    too, and a deliberate test hook carries a waiver.
//
// The rule is name-based and conservative: overloads share liveness, and
// all-caps (macro-like) names and operator/main entry points are exempt.
#include <algorithm>
#include <cctype>
#include <set>
#include <string>

#include "analysis.hpp"

namespace densevlc::analyze {
namespace {

bool macro_like(const std::string& name) {
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isupper(c) != 0 || std::isdigit(c) != 0 || c == '_';
  });
}

bool exempt_name(const std::string& name) {
  return name == "main" || name.rfind("operator", 0) == 0 ||
         macro_like(name) || name.empty() || name[0] == '_';
}

std::string stem_of(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

class DeadApiPass final : public Pass {
 public:
  const char* name() const override { return "dead-api"; }

  std::vector<RuleInfo> rules() const override {
    return {
        {"dead-public-api",
         "src/ header functions must be used outside their own TU"},
    };
  }

  void run_project(const AnalysisContext& ctx, Sink& sink) const override {
    for (const FileSummary& f : ctx.index.files) {
      if (!f.is_header || f.rel.rfind("src/", 0) != 0) continue;
      const std::string stem = stem_of(f.rel);
      std::set<std::string> counted;
      for (const SymbolDecl& d : f.symbols) {
        if (exempt_name(d.name)) continue;
        if (ctx.index.external_uses(d.name, f.rel) != 0) continue;
        if (!counted.insert(d.name).second) continue;
        // Count this name's occurrences inside the header/source pair.
        std::size_t uses_in_pair = 0;
        std::size_t decl_sites = 0;
        bool any_declaration_only = false;
        for (const SymbolDecl& d2 : f.symbols) {
          if (d2.name != d.name) continue;
          ++decl_sites;
          if (!d2.is_definition) any_declaration_only = true;
        }
        for (const FileSummary& g : ctx.index.files) {
          if (stem_of(g.rel) != stem) continue;
          const auto it = g.ident_uses.find(d.name);
          if (it != g.ident_uses.end()) uses_in_pair += it->second;
        }
        // Expected occurrences when truly dead: every decl site, plus
        // one out-of-line definition if any site was declaration-only.
        const std::size_t expected =
            decl_sites + (any_declaration_only ? 1 : 0);
        if (uses_in_pair > expected) continue;  // used inside its own pair
        sink.report(f, d.line, "dead-public-api", d.name,
                    "'" + d.name +
                        "' is declared in a src/ header but never used "
                        "outside its own translation unit (or used only "
                        "from tests/); delete it or move it into the .cpp");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_deadapi_pass() {
  return std::make_unique<DeadApiPass>();
}

}  // namespace densevlc::analyze
