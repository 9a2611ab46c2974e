#include "common/ini.hpp"

#include <algorithm>

namespace densevlc {

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

IniConfig IniConfig::parse(const std::string& text) {
  IniConfig cfg;
  const std::string_view all{text};
  std::string section;
  std::size_t line_no = 0;
  const auto fail = [&](std::string key, const std::string& what) {
    cfg.errors_.push_back(
        {std::move(key), "line " + std::to_string(line_no) + ": " + what});
  };
  for (std::size_t start = 0; start < all.size();) {
    const auto eol = std::min(all.find('\n', start), all.size());
    // A comment runs from the first ';' or '#' to the end of the line.
    std::string_view line = all.substr(start, eol - start);
    line = trim(line.substr(0, line.find_first_of(";#")));
    start = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        fail({}, "malformed section header");
        continue;
      }
      section = trim(line.substr(1, line.size() - 2));
      cfg.sections_.push_back(section);
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail({}, "expected key = value");
      continue;
    }
    const std::string_view key = trim(line.substr(0, eq));
    if (key.empty()) {
      fail({}, "empty key");
      continue;
    }
    std::string full = section.empty() ? std::string{key}
                                       : section + "." + std::string{key};
    const auto first =
        std::find_if(cfg.items_.begin(), cfg.items_.end(),
                     [&](const IniEntry& e) { return e.key == full; });
    if (first != cfg.items_.end()) {
      fail(std::move(full), "duplicate key (first set on line " +
                                std::to_string(first->line) + ")");
      continue;
    }
    cfg.items_.push_back({section, std::move(full),
                          std::string{trim(line.substr(eq + 1))}, line_no});
  }
  return cfg;
}

}  // namespace densevlc
