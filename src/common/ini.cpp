#include "common/ini.hpp"

#include <sstream>

namespace densevlc {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

IniConfig IniConfig::parse(const std::string& text) {
  IniConfig cfg;
  std::istringstream in{text};
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  std::ostringstream errors;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments (outside of values containing ';' we keep simple:
    // comment starts at the first ';' or '#').
    const auto comment = line.find_first_of(";#");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        errors << "line " << line_no << ": malformed section header\n";
        continue;
      }
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      errors << "line " << line_no << ": expected key = value\n";
      continue;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      errors << "line " << line_no << ": empty key\n";
      continue;
    }
    const std::string full = section.empty() ? key : section + "." + key;
    cfg.values_[full] = value;
  }
  cfg.errors_ = errors.str();
  return cfg;
}

std::optional<std::string> IniConfig::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

}  // namespace densevlc
