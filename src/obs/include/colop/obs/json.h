#pragma once
// Minimal JSON support for the observability exporters: string escaping
// and writer helpers (used by the Chrome trace and metrics exporters) plus a
// small strict parser used to validate exported documents round-trip
// (tests) and to read metrics files back.  Deliberately tiny — no external
// dependency is available in this container, and the exporters only need
// objects/arrays/strings/numbers/bools/null.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace colop::obs::json {

/// Escape a string for inclusion in a JSON document (adds no quotes).
[[nodiscard]] std::string escape(std::string_view s);

/// `"key"` with escaping and surrounding quotes.
[[nodiscard]] std::string quote(std::string_view s);

/// Render a double the way JSON wants it (no inf/nan — clamped to null).
[[nodiscard]] std::string number(double v);

// --- parsed document model ------------------------------------------------

class Value;
using ValuePtr = std::shared_ptr<Value>;

class Value {
 public:
  enum class Type { null, boolean, number, string, array, object };

  Type type = Type::null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<ValuePtr> items;            // array
  std::map<std::string, ValuePtr> fields;  // object

  [[nodiscard]] bool is(Type t) const { return type == t; }
  /// Object field access; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(const std::string& key) const {
    if (type != Type::object) return nullptr;
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : it->second.get();
  }
};

/// Strict parse of a complete JSON document; throws colop::Error on any
/// syntax error or trailing garbage.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace colop::obs::json
