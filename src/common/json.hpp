// Minimal JSON reader for the repo's own machine-readable artifacts
// (bench_*.json structured reports, Chrome trace files, flight-recorder
// dumps). Recursive descent over the full value grammar, no dependencies;
// numbers are held as double (every number we emit fits), objects keep
// insertion order so diffs stay stable. This is a *reader* for files this
// library writes plus tooling inputs — not a general-purpose validator.
// The two writer helpers at the end are what every emitter in the library
// formats strings and numbers with.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fth::json {

/// Thrown on malformed input, with a byte offset in the message.
class parse_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object (key order as written in the file).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Type { Null, Bool, Number, String, Array, Object };

class Value {
 public:
  Value() = default;
  explicit Value(bool b) : type_(Type::Bool), bool_(b) {}
  explicit Value(double d) : type_(Type::Number), num_(d) {}
  explicit Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
  explicit Value(Array a) : type_(Type::Array), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o) : type_(Type::Object), obj_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::Object; }

  [[nodiscard]] bool as_bool() const { return require(Type::Bool), bool_; }
  [[nodiscard]] double as_number() const { return require(Type::Number), num_; }
  [[nodiscard]] const std::string& as_string() const { return require(Type::String), str_; }
  [[nodiscard]] const Array& as_array() const { return require(Type::Array), *arr_; }
  [[nodiscard]] const Object& as_object() const { return require(Type::Object), *obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : *obj_)
      if (k == key) return &v;
    return nullptr;
  }
  /// Object member access; throws when absent.
  [[nodiscard]] const Value& at(const std::string& key) const {
    const Value* v = find(key);
    if (v == nullptr) throw parse_error("json: missing key '" + key + "'");
    return *v;
  }

 private:
  void require(Type t) const {
    if (type_ != t) throw parse_error("json: wrong value type accessed");
  }

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
[[nodiscard]] Value parse(const std::string& text);

/// Parse the file at `path`; throws parse_error (also on unreadable file).
[[nodiscard]] Value parse_file(const std::string& path);

/// Append `s` as the body of a JSON string: quotes, backslashes and control
/// characters escaped.
void append_escaped(std::string& out, std::string_view s);

/// Append `v` with `digits` significant digits (%.*g). JSON has no NaN or
/// infinity, so a non-finite value is written as null.
void append_number(std::string& out, double v, int digits = 17);

}  // namespace fth::json
