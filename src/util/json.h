#ifndef PINSQL_UTIL_JSON_H_
#define PINSQL_UTIL_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pinsql {

/// A minimal JSON document model plus parser/writer, implemented from
/// scratch (no third-party dependency). Used by the repair rule engine
/// (paper Fig. 5) and for benchmark/experiment result emission.
///
/// Numbers are stored as double; object keys are kept in sorted order
/// (std::map) so serialization is deterministic.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Constructs null.
  Json() : type_(Type::kNull) {}
  /// Typed constructors; implicit so literals read naturally at call sites.
  Json(bool b) : type_(Type::kBool), bool_(b) {}             // NOLINT
  Json(double num) : type_(Type::kNumber), number_(num) {}   // NOLINT
  Json(int num) : Json(static_cast<double>(num)) {}          // NOLINT
  Json(int64_t num) : Json(static_cast<double>(num)) {}      // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Json(std::string s)                                        // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Value accessors; assert on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Object lookup; returns nullptr if absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Typed lookups with defaults, for config-style consumption.
  double GetNumberOr(std::string_view key, double fallback) const;
  bool GetBoolOr(std::string_view key, bool fallback) const;
  std::string GetStringOr(std::string_view key,
                          std::string_view fallback) const;

  /// Object mutation (asserts this is an object).
  Json& Set(std::string key, Json value);
  /// Array append (asserts this is an array).
  Json& Append(Json value);

  /// Serializes compactly ({"a":1}) or pretty-printed with 2-space indent.
  std::string Dump(bool pretty = false) const;

  /// Parses a complete JSON document; trailing non-space input is an error.
  /// Built on JsonLexer, so its errors are the lexer's.
  static StatusOr<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string* out, bool pretty, int indent) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Pull lexer over one JSON text: the single JSON grammar in the tree.
/// Json::Parse builds a DOM from its tokens; the /v1/ingest decoder
/// (serve/ingest_decoder.h) writes batch fields straight from them, so the
/// two accept the same texts and fail with the same errors.
///
/// Grammar details both consumers share: numbers are parsed with
/// std::from_chars, falling back to strtod when out of range (so 1e999 is
/// +inf and underflow keeps its sign); leading zeros are accepted; \u
/// escapes are UTF-8 encoded per code unit; nesting deeper than 256 values
/// fails. Errors are ParseError "<what> at offset N".
///
/// Usage: NextValue() reads a value's first token. Scalars are consumed
/// whole (number() / string() hold them). For kArray / kObject the opening
/// bracket is consumed and the caller walks the container with
/// NextElement() / NextMember() until *more is false, calling NextValue()
/// (or SkipValue()) once per element or member value. Every call returns
/// false on a syntax error, after which status() holds the error and the
/// lexer must not be used further.
class JsonLexer {
 public:
  enum class Token { kNull, kTrue, kFalse, kNumber, kString, kArray, kObject };

  explicit JsonLexer(std::string_view text) : text_(text) {}

  bool NextValue(Token* token);
  /// Inside an array; `first` right after its '['. On *more an element
  /// follows; otherwise the closing ']' was consumed.
  bool NextElement(bool first, bool* more);
  /// Inside an object; `first` right after its '{'. On *more the member's
  /// key is in string() and its ':' was consumed; otherwise the closing
  /// '}' was consumed.
  bool NextMember(bool first, bool* more);
  /// Consumes the rest of a value whose first token was `token`.
  bool Skip(Token token);
  /// Consumes one whole value.
  bool SkipValue();
  /// After the root value: only whitespace may follow.
  bool Finish();

  double number() const { return number_; }
  /// The last string or key, unescaped; valid until the next call.
  std::string_view string() const { return string_; }
  const Status& status() const { return status_; }

 private:
  bool Fail(const char* what);
  void SkipWhitespace();
  bool ConsumeLiteral(std::string_view literal);
  bool ScanString();
  bool ScanNumber();
  bool CloseContainer(char close, const char* unterminated,
                      const char* expected, bool* more);

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  double number_ = 0.0;
  std::string_view string_;
  std::string scratch_;  // unescaped strings
  Status status_;
};

}  // namespace pinsql

#endif  // PINSQL_UTIL_JSON_H_
