// Machine-readable bench output.
//
// The figure benches print human tables; the campaign runner and the
// fault soak (campaign, ext_faults) additionally emit JSON so CI can
// archive results and later runs can diff them. This is a deliberately tiny
// *writer* — insertion-ordered objects, arrays, scalars, shortest
// round-trip doubles — not a parser; nothing in the repo consumes JSON.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace densevlc::bench {

/// An insertion-ordered JSON value (object, array, or scalar).
class Json {
 public:
  /// Scalars. The default-constructed value is null.
  Json() = default;
  Json(double v);               // NOLINT(google-explicit-constructor)
  Json(std::int64_t v);         // NOLINT(google-explicit-constructor)
  Json(std::size_t v);          // NOLINT(google-explicit-constructor)
  Json(int v);                  // NOLINT(google-explicit-constructor)
  Json(bool v);                 // NOLINT(google-explicit-constructor)
  Json(std::string v);          // NOLINT(google-explicit-constructor)
  Json(const char* v);          // NOLINT(google-explicit-constructor)

  static Json object();
  static Json array();

  /// Object insertion (keeps insertion order; later sets of the same key
  /// overwrite in place). Calling set() on a null value turns it into an
  /// object; calling it on a scalar or array is a contract violation.
  Json& set(const std::string& key, Json value);

  /// Array append. Calling push() on a null value turns it into an array.
  Json& push(Json value);

  /// Serializes with 2-space indentation and a trailing newline.
  std::string dump() const;

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  void render(std::string& out, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Writes `value.dump()` to `path`. Returns false on I/O failure.
[[nodiscard]] bool write_json_file(const std::string& path, const Json& value);

}  // namespace densevlc::bench
