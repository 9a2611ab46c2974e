// Structural parser for dvlc_analyze: a lightweight scope tree over the
// shared token stream (source.hpp).
//
// A flat token scan cannot tell a *declaration* of `time`
// (`std::vector<double> time(n);`) from a *call* to ::time(). The scope
// tree closes that gap without becoming a C++ parser: it recognizes the
// handful of structures the passes reason about —
//
//   - namespace / class / struct / enum scopes (with names),
//   - function definitions (name + parameter list),
//   - lambda bodies,
//   - plain control/compound blocks,
//
// and records every variable declared in each scope together with the
// spelled type (template arguments included) and the unit suffix parsed
// from the name (`_m`, `_w`, `_ms`, ...). Declarations it cannot parse
// are simply absent — every consumer treats "unknown" as "no claim".
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "source.hpp"

namespace densevlc::analyze {

enum class ScopeKind {
  kFile,
  kNamespace,
  kClass,  // class / struct / union / enum
  kFunction,
  kLambda,
  kBlock,
};

/// One declared variable (local, parameter, or class field).
struct ScopeVar {
  std::string name;
  std::string type;    // spelled type, e.g. "std::unordered_map<int,double>"
  std::string suffix;  // recognized unit suffix ("_m", "_w", ...) or ""
  std::size_t line = 0;
  std::size_t decl_tok = 0;  // token index of the name
  bool is_param = false;
};

/// One scope. Children are indices into ScopeTree::nodes (the vector is
/// append-only during the build, so indices are stable).
struct ScopeNode {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;          // namespace/class/function name, "" otherwise
  std::size_t open_tok = 0;  // token index of "{" (0 for the file root)
  std::size_t close_tok = 0; // token index of matching "}" (or token count)
  std::size_t line = 0;
  std::size_t parent = 0;    // index into nodes; root points at itself
  std::vector<std::size_t> children;
  std::vector<ScopeVar> vars;
};

class ScopeTree {
 public:
  std::vector<ScopeNode> nodes;  // nodes[0] is the file root

  /// Index of the innermost scope whose token range contains `tok`.
  std::size_t innermost(std::size_t tok) const;

  /// Innermost declaration of `name` visible at token `tok` (parameters
  /// and class fields included), or nullptr when no scope declares it.
  const ScopeVar* lookup(const std::string& name, std::size_t tok) const;

  /// True when `tok` lies inside a scope of kind `k` (at any depth).
  bool inside(std::size_t tok, ScopeKind k) const;

  /// Walks outward from `tok`; returns the nearest enclosing scope of
  /// kind `k`, or npos.
  std::size_t enclosing(std::size_t tok, ScopeKind k) const;
};

/// Builds the scope tree for one token stream.
ScopeTree build_scope_tree(const std::vector<Token>& toks);

/// The recognized unit suffix of an identifier ("" when none). A
/// trailing underscore (private members) is ignored: `power_used_w_`
/// has suffix "_w".
std::string unit_suffix_of(const std::string& name);

}  // namespace densevlc::analyze
