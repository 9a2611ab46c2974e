#include "bench_json.hpp"

#include <cmath>
#include <cstdio>

#include "common/atomic_file.hpp"
#include "common/contracts.hpp"

namespace densevlc::bench {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; encode as null so consumers fail loudly
    // rather than parse a bare token.
    out += "null";
    return;
  }
  // Shortest representation that round-trips.
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == v) break;
  }
  out += buf;
}

}  // namespace

Json::Json(double v) : kind_{Kind::kDouble}, double_{v} {}
Json::Json(std::int64_t v) : kind_{Kind::kInt}, int_{v} {}
Json::Json(std::size_t v)
    : kind_{Kind::kInt}, int_{static_cast<std::int64_t>(v)} {}
Json::Json(int v) : kind_{Kind::kInt}, int_{v} {}
Json::Json(bool v) : kind_{Kind::kBool}, bool_{v} {}
Json::Json(std::string v) : kind_{Kind::kString}, string_{std::move(v)} {}
Json::Json(const char* v) : kind_{Kind::kString}, string_{v} {}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  DVLC_EXPECT(kind_ == Kind::kObject, "Json::set on a non-object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  DVLC_EXPECT(kind_ == Kind::kArray, "Json::push on a non-array");
  items_.push_back(std::move(value));
  return *this;
}

void Json::render(std::string& out, int depth) const {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(depth + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kDouble: append_double(out, double_); break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += inner_pad;
        items_[i].render(out, depth + 1);
        if (i + 1 < items_.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "]";
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += inner_pad;
        append_escaped(out, members_[i].first);
        out += ": ";
        members_[i].second.render(out, depth + 1);
        if (i + 1 < members_.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "}";
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  render(out, 0);
  out.push_back('\n');
  return out;
}

bool write_json_file(const std::string& path, const Json& value) {
  // Write-temp-then-rename: a bench killed mid-write must leave either
  // the previous artifact or the new one, never a truncated JSON file.
  return write_file_atomic(path, value.dump());
}

}  // namespace densevlc::bench
