// Minimal INI-style syntax layer under the scenario spec parser.
//
// Scenario and campaign files (scenario/spec.hpp) are INI text; this
// class only splits it into keys and raw values. The spec parser owns
// the schema: it types every value and rejects unknown keys. Supported
// syntax:
//
//   ; comment      # comment
//   [section]
//   key = value
//
// Keys are addressed as "section.key" ("" section for keys before any
// header). Values keep their raw text.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace densevlc {

/// Parsed INI content: raw values by full key.
class IniConfig {
 public:
  /// Parses text. Malformed lines (no '=', unterminated section) are
  /// reported via the error string; parsing continues past them.
  static IniConfig parse(const std::string& text);

  /// Raw text value of "section.key".
  std::optional<std::string> get(const std::string& key) const;

  /// All key-value pairs, ordered by full key name. Schema-checking
  /// consumers (the scenario spec parser) iterate this to reject unknown
  /// keys instead of silently ignoring them.
  const std::map<std::string, std::string>& items() const { return values_; }

  /// Parse diagnostics (one line per problem; empty when clean).
  const std::string& errors() const { return errors_; }

 private:
  std::map<std::string, std::string> values_;
  std::string errors_;
};

}  // namespace densevlc
