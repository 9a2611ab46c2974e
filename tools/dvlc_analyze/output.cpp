#include "output.hpp"

#include <cstdio>
#include <map>
#include <sstream>

namespace densevlc::analyze {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string render_human(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ':' << f.line << ": error: [" << f.rule << "] "
        << f.message << '\n';
  }
  return out.str();
}

std::string render_sarif(const std::vector<Finding>& findings,
                         const std::vector<RuleInfo>& rules) {
  // Rule descriptors, indexed for result->rule references.
  std::map<std::string, std::size_t> rule_index;
  std::ostringstream out;
  out << "{\n"
         "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"dvlc_analyze\",\n"
         "          \"informationUri\": "
         "\"docs/static_analysis.md\",\n"
         "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rule_index[rules[i].id] = i;
    out << "            {\"id\": \"" << json_escape(rules[i].id)
        << "\", \"shortDescription\": {\"text\": \""
        << json_escape(rules[i].summary) << "\"}}"
        << (i + 1 < rules.size() ? ",\n" : "\n");
  }
  out << "          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "        {\n"
           "          \"ruleId\": \"" << json_escape(f.rule) << "\",\n";
    const auto idx = rule_index.find(f.rule);
    if (idx != rule_index.end()) {
      out << "          \"ruleIndex\": " << idx->second << ",\n";
    }
    out << "          \"level\": \"error\",\n"
           "          \"message\": {\"text\": \"" << json_escape(f.message)
        << "\"},\n"
           "          \"partialFingerprints\": {\"dvlcSymbol/v1\": \""
        << json_escape(finding_fingerprint(f)) << "\"},\n"
           "          \"locations\": [\n"
           "            {\n"
           "              \"physicalLocation\": {\n"
           "                \"artifactLocation\": {\"uri\": \""
        << json_escape(f.file) << "\"},\n"
           "                \"region\": {\"startLine\": "
        << (f.line == 0 ? 1 : f.line) << "}\n"
           "              }\n"
           "            }\n"
           "          ]\n"
           "        }" << (i + 1 < findings.size() ? ",\n" : "\n");
  }
  out << "      ]\n"
         "    }\n"
         "  ]\n"
         "}\n";
  return out.str();
}

std::string finding_fingerprint(const Finding& f) {
  // No line number: the fingerprint must survive unrelated edits above
  // the finding. (rule, file, symbol) matches the baseline key.
  return f.rule + "|" + f.file + "|" + f.symbol;
}

}  // namespace densevlc::analyze
