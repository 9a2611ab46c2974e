// Cross-translation-unit project index for dvlc_analyze.
//
// Project-level passes (layering, dead-api) do not keep the token stream
// of every file alive until the whole tree is read. Instead each file is
// boiled down once into a FileSummary: its include edges, waiver map,
// declared header symbols, and an identifier use count. Summaries are
// small and sufficient for every cross-TU rule; the ProjectIndex is just
// the collected summaries plus the include-graph queries built over them.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "parse.hpp"
#include "source.hpp"

namespace densevlc::analyze {

/// A function name declared in a header (free functions only — methods
/// are deliberately out of scope for the dead-api rule).
struct SymbolDecl {
  std::string name;
  std::size_t line = 0;
  bool is_definition = false;  // `{` body follows (inline in the header)
};

/// Everything the cross-TU passes need to know about one file.
struct FileSummary {
  std::string rel;     // root-relative path (generic form)
  std::string module;  // layering module ("common", ..., "tests")
  bool is_header = false;
  std::vector<Include> includes;
  WaiverMap waivers;
  /// Free-function declarations in this header (empty for .cpp files).
  std::vector<SymbolDecl> symbols;
  /// Occurrence count of every identifier token in the file.
  std::map<std::string, std::size_t> ident_uses;
};

/// Builds the summary for one indexed file (uses its scope tree to tell
/// class methods from free functions).
FileSummary summarize(const SourceFile& f, const ScopeTree& scope);

/// The collected summaries plus include-graph queries.
struct ProjectIndex {
  std::vector<FileSummary> files;

  /// Occurrences of `name` outside the header/source pair that declares
  /// it (same directory + same stem are "its own TU") and outside
  /// tests/: code that only its own tests call is not live.
  std::size_t external_uses(const std::string& name,
                            const std::string& decl_rel) const;

  /// Resolved file-level include edges, keyed by include spelling
  /// ("channel/model.hpp" for src/channel/model.hpp). Built by
  /// build_edges(); used by the layering cycle check.
  std::map<std::string, std::vector<std::string>> build_edges() const;

  /// The include spelling of a root-relative path.
  static std::string include_spelling(const std::string& rel);
};

}  // namespace densevlc::analyze
