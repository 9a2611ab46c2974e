#include "spec_diff.hpp"

#include <algorithm>
#include <sstream>

#include "common/ini.hpp"
#include "scenario/campaign.hpp"
#include "scenario/spec.hpp"

namespace densevlc::specdiff {

namespace {

std::string join(const std::vector<std::string>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += " | ";
    out += values[i];
  }
  return out;
}

}  // namespace

Canonical canonicalize(const std::string& text) {
  Canonical out;
  out.is_campaign = std::ranges::any_of(
      IniConfig::parse(text).sections(),
      [](const std::string& s) { return s == "campaign" || s == "sweep"; });
  std::string canonical;
  if (out.is_campaign) {
    const scenario::CampaignParseResult parsed =
        scenario::parse_campaign(text);
    if (!parsed.ok()) {
      out.error = parsed.error_text();
      return out;
    }
    const scenario::CampaignSpec& c = *parsed.campaign;
    canonical = scenario::serialize_spec(c.base);
    out.items["campaign.instances"] = std::to_string(c.instances_per_point);
    out.items["campaign.quick_instances"] =
        std::to_string(c.quick_instances_per_point);
    for (const scenario::CampaignAxis& axis : c.axes) {
      out.items["sweep." + axis.key] = join(axis.values);
    }
  } else {
    const scenario::SpecParseResult parsed = scenario::parse_spec(text);
    if (!parsed.ok()) {
      out.error = parsed.error_text();
      return out;
    }
    canonical = scenario::serialize_spec(*parsed.spec);
  }
  const IniConfig flat = IniConfig::parse(canonical);
  for (const IniEntry& entry : flat.items()) {
    out.items[entry.key] = entry.value;
  }
  out.ok = true;
  return out;
}

std::vector<DiffEntry> diff_items(
    const std::map<std::string, std::string>& a,
    const std::map<std::string, std::string>& b) {
  std::vector<DiffEntry> out;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      out.push_back({DiffEntry::Kind::kOnlyA, ia->first, ia->second, ""});
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      out.push_back({DiffEntry::Kind::kOnlyB, ib->first, "", ib->second});
      ++ib;
    } else {
      if (ia->second != ib->second) {
        out.push_back(
            {DiffEntry::Kind::kChanged, ia->first, ia->second, ib->second});
      }
      ++ia;
      ++ib;
    }
  }
  return out;
}

std::string render_diff(const std::vector<DiffEntry>& entries) {
  std::ostringstream out;
  for (const DiffEntry& e : entries) {
    switch (e.kind) {
      case DiffEntry::Kind::kOnlyA:
        out << "- " << e.key << " = " << e.a << '\n';
        break;
      case DiffEntry::Kind::kOnlyB:
        out << "+ " << e.key << " = " << e.b << '\n';
        break;
      case DiffEntry::Kind::kChanged:
        out << "~ " << e.key << " = " << e.a << " -> " << e.b << '\n';
        break;
    }
  }
  return out.str();
}

}  // namespace densevlc::specdiff
