// Nondeterminism-flow pass: sources of run-to-run variation, caught
// with the scope tree so declarations never masquerade as calls.
//
//   nondet-unordered-iter  range-for over a std::unordered_map/set whose
//                          loop body lets the element order escape (an
//                          aggregate `+=`, stream `<<`, container growth,
//                          or a fingerprint/hash call). Pure per-key
//                          indexed stores are order-independent and
//                          deliberately not flagged.
//   nondet-wallclock       time()/clock()/random_device/system_clock and
//                          friends in simulation code. A *variable* named
//                          `time` (the scope tree knows) is fine; the
//                          libc call is not. Timing clocks are allowed in
//                          bench/tests/tools/examples harnesses; entropy
//                          sources are allowed only in common/rng.
//   nondet-pointer-key     std::map/std::set keyed by a pointer: the
//                          traversal order is the allocator's address
//                          order, which no seed pins down.
#include <string>

#include "analysis.hpp"

namespace densevlc::analyze {
namespace {

bool is_timing_clock(const std::string& s) {
  return s == "clock" || s == "system_clock" || s == "steady_clock" ||
         s == "high_resolution_clock";
}

bool is_entropy_source(const std::string& s) {
  return s == "time" || s == "srand" || s == "random_device";
}

/// Modules whose job is timing the simulator rather than running it.
bool is_harness_module(const std::string& module) {
  return module == "bench" || module == "tests" || module == "tools";
}

/// Token texts through which an element's value (or the iteration order
/// itself) escapes the loop body into an aggregate or output.
bool is_escape_token(const std::string& s) {
  return s == "<<" || s == "+=" || s == "-=" || s == "*=" ||
         s == "push_back" || s == "emplace_back" || s == "insert" ||
         s == "emplace" || s == "append" || s == "fingerprint" ||
         s == "hash" || s == "mix" || s == "accumulate" || s == "printf" ||
         s == "fprintf" || s == "write";
}

void check_unordered_iter(const SourceFile& f, const ScopeTree& scope,
                          Sink& sink) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier || toks[i].text != "for") {
      continue;
    }
    const std::size_t open = next_code(toks, i);
    if (!token_is(toks, open, "(")) continue;
    const std::size_t close = match_paren(toks, open);
    if (close == std::string::npos) continue;
    // Range-for: a top-level `:` inside the parens.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t j = open + 1; j < close; ++j) {
      const std::string& s = toks[j].text;
      if (toks[j].kind != TokenKind::kPunct) continue;
      if (s == "(" || s == "[" || s == "{" || s == "<") ++depth;
      if (s == ")" || s == "]" || s == "}" || s == ">") --depth;
      if (s == ":" && depth == 0) {
        colon = j;
        break;
      }
    }
    if (colon == std::string::npos) continue;

    // Is the sequence expression unordered? Either it spells the type
    // inline, or its base identifier's declared type does.
    bool unordered = false;
    std::string seq_name;
    for (std::size_t j = next_code(toks, colon); j != std::string::npos &&
                                                 j < close;
         j = next_code(toks, j)) {
      if (toks[j].kind != TokenKind::kIdentifier) continue;
      if (toks[j].text.rfind("unordered_", 0) == 0) {
        unordered = true;
        seq_name = toks[j].text;
        break;
      }
      const ScopeVar* var = scope.lookup(toks[j].text, j);
      if (var != nullptr && var->type.find("unordered_") != std::string::npos) {
        unordered = true;
        seq_name = toks[j].text;
        break;
      }
    }
    if (!unordered) continue;

    // Loop body: `{...}` or a single statement up to `;`.
    std::size_t body_begin = next_code(toks, close);
    if (body_begin == std::string::npos) continue;
    std::size_t body_end;
    if (token_is(toks, body_begin, "{")) {
      body_end = match_brace(toks, body_begin);
      if (body_end == std::string::npos) continue;
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && toks[body_end].text != ";") ++body_end;
    }
    bool escapes = false;
    for (std::size_t j = body_begin; j < body_end && !escapes; ++j) {
      if (is_code(toks[j]) && is_escape_token(toks[j].text)) escapes = true;
    }
    if (!escapes) continue;
    sink.report(f, toks[i].line, "nondet-unordered-iter", seq_name,
                "iterating '" + seq_name +
                    "' (std::unordered_*) with the element order escaping "
                    "into an aggregate/output; unordered iteration order is "
                    "implementation-defined — iterate a sorted view or use "
                    "std::map");
  }
}

void check_wallclock(const SourceFile& f, const ScopeTree& scope, Sink& sink) {
  if (f.rel.find("common/rng") != std::string::npos) return;
  const bool harness = is_harness_module(f.module);
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool clock_like = is_timing_clock(t.text);
    const bool entropy = is_entropy_source(t.text);
    if (!clock_like && !entropy) continue;
    if (clock_like && harness) continue;  // timing a bench is the point

    // Must look like a use: `name (` or `name ::` (clock::now()).
    const std::size_t after = next_code(toks, i);
    const bool used = token_is(toks, after, "(") || token_is(toks, after, "::");
    if (!used) continue;
    // Member access is some object's own API, not the libc/chrono call.
    const std::size_t p = prev_code(toks, i);
    if (p != std::string::npos &&
        (toks[p].text == "." || toks[p].text == "->")) {
      continue;
    }
    // A declaration (`std::vector<double> time(n);`) binds a variable —
    // the scope tree resolves the name to it; so does any later use.
    if (scope.lookup(t.text, i) != nullptr) continue;
    // Declaration heads (`double time(...)`) are preceded by a type.
    if (p != std::string::npos &&
        (toks[p].kind == TokenKind::kIdentifier || toks[p].text == ">" ||
         toks[p].text == "&" || toks[p].text == "*")) {
      continue;
    }
    sink.report(f, t.line, "nondet-wallclock", t.text,
                "'" + t.text +
                    "' injects wall-clock/entropy state into simulation "
                    "code; results must replay bit-identically — derive "
                    "everything from the scenario seed (common/rng.hpp)");
  }
}

void check_pointer_key(const SourceFile& f, Sink& sink) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "map" && t.text != "set" && t.text != "multimap" &&
        t.text != "multiset" && t.text != "unordered_map" &&
        t.text != "unordered_set") {
      continue;
    }
    const std::size_t open = next_code(toks, i);
    if (!token_is(toks, open, "<")) continue;
    // Walk the first template argument (to a top-level `,` or the
    // matching `>`); remember its last code token.
    int depth = 1;
    std::size_t last = std::string::npos;
    std::size_t j = open;
    while (depth > 0) {
      j = next_code(toks, j);
      if (j == std::string::npos) break;
      const std::string& s = toks[j].text;
      if (s == "<") ++depth;
      if (s == ">") --depth;
      if (s == ">>") depth -= 2;
      if (depth <= 0) break;
      if (s == "," && depth == 1) break;
      last = j;
    }
    if (last == std::string::npos) continue;
    if (toks[last].text != "*") continue;
    sink.report(f, t.line, "nondet-pointer-key", t.text,
                "'std::" + t.text +
                    "' keyed by a pointer orders elements by allocation "
                    "address, which no seed reproduces; key by a stable id "
                    "(index, name) instead");
  }
}

class NondetPass final : public Pass {
 public:
  const char* name() const override { return "nondet-flow"; }

  std::vector<RuleInfo> rules() const override {
    return {
        {"nondet-unordered-iter",
         "unordered-container iteration must not feed aggregates/output"},
        {"nondet-wallclock",
         "simulation code must not read wall clocks or entropy sources"},
        {"nondet-pointer-key",
         "ordered containers must not be keyed by pointers"},
    };
  }

  void run_file(const SourceFile& f, const ScopeTree& scope,
                Sink& sink) const override {
    check_unordered_iter(f, scope, sink);
    check_wallclock(f, scope, sink);
    check_pointer_key(f, sink);
  }
};

}  // namespace

std::unique_ptr<Pass> make_nondet_pass() {
  return std::make_unique<NondetPass>();
}

}  // namespace densevlc::analyze
