// Conventions pass: the original repo-invariant rules, unchanged IDs.
//
//   units          public numeric fields in headers whose name describes a
//                  physical quantity must carry a unit suffix.
//   nodiscard      bool/optional-returning save/load/parse/... APIs in
//                  headers must be [[nodiscard]].
//   banned         rand() and argless assert(false)/assert(0).
//   raw-double     physics-core parameters/returns with a dimensional unit
//                  suffix must use the typed aliases (common/quantity.hpp).
//   naked-literal  physics-core `double x_w = 0.45;` must use unit literals
//                  or units:: helpers.
//   hot-loop-alloc growing-vector member calls in `// DVLC_HOT` files.
//   unchecked-io   discarded stream write/flush/close results and
//                  statement-position std::rename/std::remove in
//                  src/ + bench/ (durable artifacts must not fail
//                  silently).
//   simd-raw-intrinsic
//                  raw vector intrinsics (AVX/SSE `_mm*`, `__m256i`-style
//                  types, NEON `vld1q_*`/`vqtbl1q_*`/element-typed `v*q_`
//                  calls) anywhere but common/simd.hpp — every other TU
//                  goes through the portable wrapper so the scalar
//                  fallback stays bit-identical and testable.
#include <algorithm>
#include <cctype>
#include <sstream>

#include "analysis.hpp"

namespace densevlc::analyze {
namespace {

// Quantity stems that demand a unit suffix when they name a numeric field.
const char* const kQuantityStems[] = {
    "time",     "delay",      "duration",    "interval",  "period",
    "power",    "energy",     "illuminance", "luminous",  "throughput",
    "bitrate",  "datarate",   "bandwidth",   "frequency", "freq",
    "distance", "length",     "height",      "width_",    "area",
    "angle",    "swing",      "current",     "voltage",   "noise",
    "latency",  "timeout",    "offset",      "drift",     "resistance",
};

// Accepted unit suffixes (extend as new quantities appear).
const char* const kUnitSuffixes[] = {
    "_s",    "_ms",   "_us",   "_ns",   "_hz",   "_khz", "_mhz", "_ghz",
    "_bps",  "_kbps", "_mbps", "_w",    "_mw",   "_lux", "_lm",  "_m",
    "_m2",   "_mm",   "_mm2",  "_cm",   "_rad",  "_deg", "_db",  "_dbm",
    "_a",    "_ma",   "_a2",   "_v",    "_j",    "_ohm", "_pct", "_ppm",
    "_per_w", "_per_hz", "_per_s", "_per_m",
};

// Suffixes naming dimensionless ratios/angles: these stay plain double even
// at typed physics boundaries (angles and dB have no Quantity alias).
const char* const kDimensionlessSuffixes[] = {
    "_rad", "_deg", "_db", "_dbm", "_pct", "_ppm",
};

bool ends_with_unit(std::string name) {
  // Private members carry a trailing underscore (`power_used_w_`).
  if (!name.empty() && name.back() == '_') name.pop_back();
  return std::any_of(std::begin(kUnitSuffixes), std::end(kUnitSuffixes),
                     [&](const char* s) { return ends_with(name, s); });
}

/// True when the name carries a unit suffix naming a *dimensional*
/// quantity — the ones common/quantity.hpp has a typed alias for.
bool has_dimensional_suffix(std::string name) {
  if (!name.empty() && name.back() == '_') name.pop_back();
  if (std::any_of(std::begin(kDimensionlessSuffixes),
                  std::end(kDimensionlessSuffixes),
                  [&](const char* s) { return ends_with(name, s); })) {
    return false;
  }
  return ends_with_unit(name);
}

bool names_quantity(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return std::any_of(std::begin(kQuantityStems), std::end(kQuantityStems),
                     [&](const char* s) {
                       return lower.find(s) != std::string::npos;
                     });
}

/// True for files whose public surface must use typed quantities.
bool in_physics_core(const std::string& rel) {
  for (const char* dir : {"optics/", "channel/", "illum/", "alloc/"}) {
    if (rel.find(std::string("/") + dir) != std::string::npos ||
        rel.rfind(dir, 0) == 0) {
      return true;
    }
  }
  return ends_with(rel, "phy/frontend.hpp") || ends_with(rel, "core/trace.hpp");
}

void check_banned(const SourceFile& f, Sink& sink) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "rand") {
      const std::size_t p = prev_code(toks, i);
      const bool qualified =
          p != std::string::npos &&
          (toks[p].text == "::" || toks[p].text == "." || toks[p].text == "->");
      if (!qualified && token_is(toks, next_code(toks, i), "(")) {
        sink.report(f, t.line, "banned", "rand",
                    "rand() is not reproducible; use common/rng.hpp");
      }
    }
    if (t.text == "assert") {
      const std::size_t open = next_code(toks, i);
      if (!token_is(toks, open, "(")) continue;
      const std::size_t arg = next_code(toks, open);
      if (arg == std::string::npos) continue;
      const bool bare = toks[arg].text == "false" || toks[arg].text == "0";
      if (bare && token_is(toks, next_code(toks, arg), ")")) {
        sink.report(f, t.line, "banned", "assert",
                    "argless assert(false); use DVLC_ASSERT(cond, \"message\")");
      }
    }
  }
}

void check_units(const SourceFile& f, Sink& sink) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier ||
        (t.text != "double" && t.text != "float")) {
      continue;
    }
    if (!at_decl_start(toks, i)) continue;
    const std::size_t name_idx = next_code(toks, i);
    if (name_idx == std::string::npos ||
        toks[name_idx].kind != TokenKind::kIdentifier) {
      continue;
    }
    const std::size_t after = next_code(toks, name_idx);
    if (after == std::string::npos) continue;
    const std::string& punct = toks[after].text;
    if (punct != "=" && punct != "{" && punct != ";") continue;  // not a field
    const std::string& name = toks[name_idx].text;
    if (names_quantity(name) && !ends_with_unit(name)) {
      sink.report(f, toks[name_idx].line, "units", name,
                  "numeric field '" + name +
                      "' names a physical quantity but has no unit suffix "
                      "(_s, _w, _bps, _lux, ...)");
    }
  }
}

bool is_error_api_name(const std::string& name) {
  static const char* const kPrefixes[] = {"save", "load", "write",
                                          "read", "parse", "try"};
  return std::any_of(std::begin(kPrefixes), std::end(kPrefixes),
                     [&](const char* p) { return name.rfind(p, 0) == 0; });
}

void check_nodiscard(const SourceFile& f, Sink& sink) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    std::size_t name_idx = std::string::npos;
    if (t.text == "bool" && at_decl_start(toks, i)) {
      name_idx = next_code(toks, i);
    } else if (t.text == "std" && at_decl_start(toks, i)) {
      // std :: optional < ... > name (
      std::size_t j = next_code(toks, i);
      if (!token_is(toks, j, "::")) continue;
      j = next_code(toks, j);
      if (j == std::string::npos || toks[j].text != "optional") continue;
      j = next_code(toks, j);
      if (!token_is(toks, j, "<")) continue;
      int depth = 1;
      while (depth > 0) {
        j = next_code(toks, j);
        if (j == std::string::npos) break;
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">") --depth;
      }
      if (j == std::string::npos) continue;
      name_idx = next_code(toks, j);
    } else {
      continue;
    }
    if (name_idx == std::string::npos ||
        toks[name_idx].kind != TokenKind::kIdentifier ||
        !is_error_api_name(toks[name_idx].text) ||
        !token_is(toks, next_code(toks, name_idx), "(")) {
      continue;
    }
    // Look for [[nodiscard]] in the handful of tokens before the type.
    bool marked = false;
    std::size_t back = i;
    for (int k = 0; k < 6 && back > 0; ++k) {
      back = prev_code(toks, back);
      if (back == std::string::npos) break;
      if (toks[back].text == "nodiscard") {
        marked = true;
        break;
      }
      if (toks[back].text == ";" || toks[back].text == "}") break;
    }
    if (!marked) {
      sink.report(f, toks[name_idx].line, "nodiscard", toks[name_idx].text,
                  "error-returning API '" + toks[name_idx].text +
                      "' must be [[nodiscard]]");
    }
  }
}

void check_raw_double(const SourceFile& f, Sink& sink) {
  const auto& toks = f.tokens;
  int paren_depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "(") ++paren_depth;
      if (t.text == ")") paren_depth = std::max(0, paren_depth - 1);
      continue;
    }
    if (t.kind != TokenKind::kIdentifier || t.text != "double") continue;
    const std::size_t name_idx = next_code(toks, i);
    if (name_idx == std::string::npos ||
        toks[name_idx].kind != TokenKind::kIdentifier) {
      continue;
    }
    const std::string& name = toks[name_idx].text;
    if (!has_dimensional_suffix(name)) continue;
    if (paren_depth > 0) {
      // A unit-suffixed double parameter: must be a Quantity alias.
      sink.report(f, toks[name_idx].line, "raw-double", name,
                  "parameter '" + name +
                      "' passes a physical quantity as bare double; use the "
                      "typed alias from common/quantity.hpp (Watts, Amperes, "
                      "Meters, ...)");
      continue;
    }
    // A unit-suffixed function returning double: `double power_w(...)`.
    if (at_decl_start(toks, i) &&
        token_is(toks, next_code(toks, name_idx), "(")) {
      sink.report(f, toks[name_idx].line, "raw-double", name,
                  "function '" + name +
                      "' returns a physical quantity as bare double; return "
                      "the typed alias from common/quantity.hpp instead");
    }
  }
}

bool literal_is_zero(const std::string& text) {
  std::istringstream in{text};
  double v = 0.0;
  in >> v;
  return v == 0.0;
}

void check_naked_literal(const SourceFile& f, Sink& sink) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier || t.text != "double") continue;
    if (!at_decl_start(toks, i)) continue;
    const std::size_t name_idx = next_code(toks, i);
    if (name_idx == std::string::npos ||
        toks[name_idx].kind != TokenKind::kIdentifier ||
        !has_dimensional_suffix(toks[name_idx].text)) {
      continue;
    }
    const std::size_t eq = next_code(toks, name_idx);
    if (!token_is(toks, eq, "=")) continue;
    const std::size_t lit = next_code(toks, eq);
    if (lit == std::string::npos || toks[lit].kind != TokenKind::kNumber) {
      continue;
    }
    if (!token_is(toks, next_code(toks, lit), ";")) continue;
    const std::string& num = toks[lit].text;
    // Unit literals (`450.0_mA`) carry the unit in the token; zero needs
    // no unit.
    if (num.find('_') != std::string::npos || literal_is_zero(num)) continue;
    sink.report(f, toks[lit].line, "naked-literal", toks[name_idx].text,
                "unit-suffixed constant '" + toks[name_idx].text +
                    "' is initialized from a naked literal; use a unit "
                    "literal (450.0_mA) or a units:: helper so the unit is "
                    "visible");
  }
}

/// True when the file opts into the zero-allocation contract: a comment
/// on line 1 that starts with the DVLC_HOT marker. (Prose elsewhere may
/// *mention* the marker — common/arena.hpp does — without opting in.)
bool has_hot_marker(const std::vector<Token>& toks) {
  for (const Token& t : toks) {
    if (t.line > 1) break;
    if (t.kind != TokenKind::kComment) continue;
    const std::size_t at = t.text.find_first_not_of(" \t");
    if (at != std::string::npos && t.text.compare(at, 8, "DVLC_HOT") == 0) {
      return true;
    }
  }
  return false;
}

void check_hot_loop_alloc(const SourceFile& f, Sink& sink) {
  static const char* const kGrowers[] = {"push_back", "emplace_back",
                                         "resize"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (std::none_of(std::begin(kGrowers), std::end(kGrowers),
                     [&](const char* g) { return t.text == g; })) {
      continue;
    }
    // Only member calls (`buf.resize(...)`): a free function named
    // arena_resize is one identifier token and never matches.
    const std::size_t p = prev_code(toks, i);
    const bool member_call =
        p != std::string::npos &&
        (toks[p].text == "." || toks[p].text == "->") &&
        token_is(toks, next_code(toks, i), "(");
    if (!member_call) continue;
    sink.report(f, t.line, "hot-loop-alloc", t.text,
                "'" + t.text +
                    "' grows a container in a DVLC_HOT file; stage through "
                    "arena_resize/arena_clear (common/arena.hpp) or waive an "
                    "intentional cold path");
  }
}

/// Artifact-writing code lives here; discarded I/O results in these
/// trees mean a crash-safety bug (an artifact write or temp-file rename
/// that failed without anyone noticing).
bool in_io_scope(const std::string& rel) {
  for (const char* dir : {"src/", "bench/"}) {
    if (rel.rfind(dir, 0) == 0 ||
        rel.find(std::string("/") + dir) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void check_unchecked_io(const SourceFile& f, Sink& sink) {
  static const char* const kIoMembers[] = {"write", "flush", "close"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    // `std::rename(...)` / `std::remove(...)` as a bare statement: both
    // report failure only through the return value, so a discarded call
    // is an invisible lost checkpoint. `(void)std::remove(...)` is the
    // explicit opt-out (the preceding `)` breaks statement position).
    if (t.text == "rename" || t.text == "remove") {
      const std::size_t colons = prev_code(toks, i);
      if (!token_is(toks, colons, "::")) continue;
      const std::size_t ns = prev_code(toks, colons);
      if (ns == std::string::npos || toks[ns].text != "std") continue;
      if (!token_is(toks, next_code(toks, i), "(")) continue;
      const std::size_t before = prev_code(toks, ns);
      if (before != std::string::npos && toks[before].text != ";" &&
          toks[before].text != "{" && toks[before].text != "}") {
        continue;
      }
      sink.report(f, t.line, "unchecked-io", "std::" + t.text,
                  "'std::" + t.text +
                      "' result is discarded; check it (or cast to void "
                      "for a best-effort cleanup path)");
      continue;
    }

    // `obj.write(...);` / `obj->flush();` / `obj.close();` as a bare
    // statement. Streams report errors through their state, so the call
    // is fine when the object is consulted again later in the file
    // (`out.write(...); return static_cast<bool>(out);`) — flagged only
    // when nothing ever looks at the object again.
    if (std::none_of(std::begin(kIoMembers), std::end(kIoMembers),
                     [&](const char* m) { return t.text == m; })) {
      continue;
    }
    const std::size_t access = prev_code(toks, i);
    if (access == std::string::npos ||
        (toks[access].text != "." && toks[access].text != "->")) {
      continue;
    }
    if (!token_is(toks, next_code(toks, i), "(")) continue;
    const std::size_t obj = prev_code(toks, access);
    if (obj == std::string::npos ||
        toks[obj].kind != TokenKind::kIdentifier) {
      continue;
    }
    const std::size_t before = prev_code(toks, obj);
    if (before != std::string::npos && toks[before].text != ";" &&
        toks[before].text != "{" && toks[before].text != "}") {
      continue;
    }
    bool object_used_later = false;
    for (std::size_t j = i + 1; j < toks.size() && !object_used_later; ++j) {
      object_used_later = toks[j].kind == TokenKind::kIdentifier &&
                          toks[j].text == toks[obj].text;
    }
    if (object_used_later) continue;
    sink.report(f, t.line, "unchecked-io", t.text,
                "result of '" + toks[obj].text + "." + t.text +
                    "' is discarded and the stream is never checked "
                    "afterwards; test the return value or the stream state");
  }
}

/// The one file allowed to spell raw intrinsics: the portable wrapper
/// (its force-scalar switch lives in the paired .cpp, which carries no
/// intrinsics but is exempt for symmetry).
bool is_simd_wrapper(const std::string& rel) {
  return ends_with(rel, "common/simd.hpp") || ends_with(rel, "common/simd.cpp");
}

/// NEON intrinsics end in an element-type suffix (`vld1q_u8`,
/// `vaddvq_u16`, `vdupq_n_u8`); matching it keeps ordinary identifiers
/// that merely start with 'v' out of the rule.
bool has_neon_element_suffix(const std::string& name) {
  static const char* const kElem[] = {"_u8",  "_s8",  "_u16", "_s16",
                                      "_u32", "_s32", "_u64", "_s64",
                                      "_f32", "_f64", "_p8",  "_p16"};
  return std::any_of(std::begin(kElem), std::end(kElem),
                     [&](const char* s) { return ends_with(name, s); });
}

bool is_raw_intrinsic(const std::string& name) {
  // x86: _mm_/_mm256_/_mm512_ calls and the __m128/__m256/__m512 types.
  // The intrinsic prefix always carries a second underscore after the
  // width (`_mm_`, `_mm256_`); unit suffixes like `_mm` / `_mm2`
  // (millimeters) do not and must not match.
  if (name.rfind("_mm", 0) == 0 && name.find('_', 3) != std::string::npos) {
    return true;
  }
  if (name.rfind("__m", 0) == 0 && name.size() > 3 &&
      std::isdigit(static_cast<unsigned char>(name[3])) != 0) {
    return true;
  }
  // NEON: 128-bit ops (`v...q_<elem>`) and the <arm_neon.h> vector types
  // (`uint8x16_t`, `float64x2_t`).
  if (name.size() > 1 && name[0] == 'v' &&
      name.find("q_") != std::string::npos &&
      has_neon_element_suffix(name)) {
    return true;
  }
  if (ends_with(name, "x16_t") || ends_with(name, "x8_t") ||
      ends_with(name, "x4_t") || ends_with(name, "x2_t")) {
    for (const char* p : {"uint", "int", "float", "poly"}) {
      if (name.rfind(p, 0) == 0) return true;
    }
  }
  return false;
}

void check_simd_raw(const SourceFile& f, Sink& sink) {
  for (const Token& t : f.tokens) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (!is_raw_intrinsic(t.text)) continue;
    sink.report(f, t.line, "simd-raw-intrinsic", t.text,
                "raw vector intrinsic '" + t.text +
                    "' outside common/simd.hpp; add the operation to the "
                    "portable wrapper (src/common/simd.hpp) so every kernel "
                    "keeps its bit-identical scalar fallback");
  }
}

class ConventionsPass final : public Pass {
 public:
  const char* name() const override { return "conventions"; }

  std::vector<RuleInfo> rules() const override {
    return {
        {"units", "quantity-named numeric fields need a unit suffix"},
        {"nodiscard", "error-returning APIs must be [[nodiscard]]"},
        {"banned", "rand() and argless assert(false) are forbidden"},
        {"raw-double",
         "physics-core boundaries use typed quantities, not bare double"},
        {"naked-literal",
         "physics-core constants use unit literals, not naked numbers"},
        {"hot-loop-alloc", "DVLC_HOT files must not grow containers"},
        {"unchecked-io",
         "stream write/flush/close and std::rename/std::remove results "
         "must be checked in src/ and bench/"},
        {"simd-raw-intrinsic",
         "raw vector intrinsics are confined to common/simd.hpp"},
        {"waiver-syntax", "DVLC_LINT_WAIVE needs a rule and a ': reason'"},
    };
  }

  void run_file(const SourceFile& f, const ScopeTree& scope,
                Sink& sink) const override {
    (void)scope;
    check_banned(f, sink);
    if (!is_simd_wrapper(f.rel)) check_simd_raw(f, sink);
    if (in_io_scope(f.rel)) check_unchecked_io(f, sink);
    if (has_hot_marker(f.tokens)) check_hot_loop_alloc(f, sink);
    if (f.is_header) {
      check_units(f, sink);
      check_nodiscard(f, sink);
      if (in_physics_core(f.rel)) check_raw_double(f, sink);
    } else if (in_physics_core(f.rel)) {
      check_naked_literal(f, sink);
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_conventions_pass() {
  return std::make_unique<ConventionsPass>();
}

}  // namespace densevlc::analyze
