// The one reader of INI text under scenario and campaign files.
//
// Scenario and campaign files (scenario/spec.hpp, scenario/campaign.hpp)
// are INI text; this class is the only code that splits that text into
// sections, keys and raw values. The spec and campaign parsers own the
// schema: they type every value and reject unknown keys. Supported
// syntax:
//
//   ; comment      # comment
//   [section]      ([ section ] names the same section)
//   key = value
//
// Keys are addressed as "section.key" ("" section for keys before any
// header). Values keep their raw text. Entries keep file order and the
// line they came from; a repeated "section.key" is an error.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace densevlc {

/// `s` without leading or trailing whitespace, as the reader trims keys,
/// values and section names.
std::string_view trim(std::string_view s);

/// One `key = value` line.
struct IniEntry {
  std::string section;   ///< "" for keys before any header
  std::string key;       ///< "section.key"
  std::string value;     ///< raw text, trimmed
  std::size_t line = 0;  ///< 1-based line in the parsed text
};

/// One syntax problem.
struct IniError {
  std::string key;      ///< the repeated "section.key"; empty otherwise
  std::string message;  ///< "line 14: expected key = value"
};

/// Parsed INI content.
class IniConfig {
 public:
  /// Parses text. Malformed lines (no '=', empty key, unterminated
  /// section) and repeated keys are reported via errors(); parsing
  /// continues past them, and a repeated key keeps its first value.
  static IniConfig parse(const std::string& text);

  /// Every entry, in file order.
  const std::vector<IniEntry>& items() const { return items_; }

  /// Section names in the order their headers appear.
  const std::vector<std::string>& sections() const { return sections_; }

  /// Syntax errors in file order (empty when clean).
  const std::vector<IniError>& errors() const { return errors_; }

 private:
  std::vector<IniEntry> items_;
  std::vector<std::string> sections_;
  std::vector<IniError> errors_;
};

}  // namespace densevlc
