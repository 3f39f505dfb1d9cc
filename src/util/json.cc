#include "util/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace pinsql {

bool Json::AsBool() const {
  assert(is_bool());
  return bool_;
}

double Json::AsNumber() const {
  assert(is_number());
  return number_;
}

const std::string& Json::AsString() const {
  assert(is_string());
  return string_;
}

const Json::Array& Json::AsArray() const {
  assert(is_array());
  return array_;
}

Json::Array& Json::AsArray() {
  assert(is_array());
  return array_;
}

const Json::Object& Json::AsObject() const {
  assert(is_object());
  return object_;
}

Json::Object& Json::AsObject() {
  assert(is_object());
  return object_;
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

double Json::GetNumberOr(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

bool Json::GetBoolOr(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

std::string Json::GetStringOr(std::string_view key,
                              std::string_view fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString()
                                          : std::string(fallback);
}

Json& Json::Set(std::string key, Json value) {
  assert(is_object());
  object_[std::move(key)] = std::move(value);
  return *this;
}

Json& Json::Append(Json value) {
  assert(is_array());
  array_.push_back(std::move(value));
  return *this;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    // JSON has no NaN/Inf; emit null as the conventional fallback.
    out->append("null");
    return;
  }
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 9.0e15) {
    out->append(StrFormat("%lld", static_cast<long long>(v)));
  } else {
    out->append(StrFormat("%.17g", v));
  }
}

void AppendIndent(std::string* out, int indent) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, bool pretty, int indent) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      AppendNumber(out, number_);
      return;
    case Type::kString:
      AppendEscaped(out, string_);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out->append("[]");
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          AppendIndent(out, indent + 1);
        }
        array_[i].DumpTo(out, pretty, indent + 1);
      }
      if (pretty) {
        out->push_back('\n');
        AppendIndent(out, indent);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out->append("{}");
        return;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        if (pretty) {
          out->push_back('\n');
          AppendIndent(out, indent + 1);
        }
        AppendEscaped(out, key);
        out->push_back(':');
        if (pretty) out->push_back(' ');
        value.DumpTo(out, pretty, indent + 1);
      }
      if (pretty) {
        out->push_back('\n');
        AppendIndent(out, indent);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(bool pretty) const {
  std::string out;
  DumpTo(&out, pretty, 0);
  return out;
}

bool JsonLexer::Fail(const char* what) {
  status_ = Status::ParseError(StrFormat("%s at offset %zu", what, pos_));
  return false;
}

void JsonLexer::SkipWhitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonLexer::ConsumeLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

bool JsonLexer::NextValue(Token* token) {
  // Every value counts against the depth bound, scalars included, and the
  // check precedes the whitespace skip (it fixes the error offset).
  if (++depth_ > kMaxDepth) return Fail("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  const char c = text_[pos_];
  switch (c) {
    case 'n':
      if (!ConsumeLiteral("null")) return Fail("invalid literal");
      *token = Token::kNull;
      break;
    case 't':
      if (!ConsumeLiteral("true")) return Fail("invalid literal");
      *token = Token::kTrue;
      break;
    case 'f':
      if (!ConsumeLiteral("false")) return Fail("invalid literal");
      *token = Token::kFalse;
      break;
    case '"':
      if (!ScanString()) return false;
      *token = Token::kString;
      break;
    case '[':
      ++pos_;
      *token = Token::kArray;
      return true;  // the depth is released by the closing ']'
    case '{':
      ++pos_;
      *token = Token::kObject;
      return true;
    default:
      if (c != '-' && (c < '0' || c > '9')) {
        return Fail("unexpected character");
      }
      if (!ScanNumber()) return false;
      *token = Token::kNumber;
  }
  --depth_;
  return true;
}

bool JsonLexer::CloseContainer(char close, const char* unterminated,
                               const char* expected, bool* more) {
  SkipWhitespace();
  if (pos_ >= text_.size()) return Fail(unterminated);
  const char c = text_[pos_++];
  if (c == close) {
    --depth_;
    *more = false;
    return true;
  }
  if (c != ',') return Fail(expected);
  *more = true;
  return true;
}

bool JsonLexer::NextElement(bool first, bool* more) {
  if (!first) {
    return CloseContainer(']', "unterminated array",
                          "expected ',' or ']' in array", more);
  }
  SkipWhitespace();
  *more = pos_ >= text_.size() || text_[pos_] != ']';
  if (!*more) {
    ++pos_;
    --depth_;
  }
  return true;
}

bool JsonLexer::NextMember(bool first, bool* more) {
  if (first) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      *more = false;
      return true;
    }
  } else if (!CloseContainer('}', "unterminated object",
                             "expected ',' or '}' in object", more)) {
    return false;
  } else if (!*more) {
    return true;
  }
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected object key string");
  }
  if (!ScanString()) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return Fail("expected ':' after object key");
  }
  ++pos_;
  *more = true;
  return true;
}

bool JsonLexer::Skip(Token token) {
  bool more = false;
  switch (token) {
    case Token::kArray:
      if (!NextElement(true, &more)) return false;
      while (more) {
        if (!SkipValue() || !NextElement(false, &more)) return false;
      }
      return true;
    case Token::kObject:
      if (!NextMember(true, &more)) return false;
      while (more) {
        if (!SkipValue() || !NextMember(false, &more)) return false;
      }
      return true;
    case Token::kNull:
    case Token::kTrue:
    case Token::kFalse:
    case Token::kNumber:
    case Token::kString:
      return true;
  }
  return true;
}

bool JsonLexer::SkipValue() {
  Token token = Token::kNull;
  return NextValue(&token) && Skip(token);
}

bool JsonLexer::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Fail("trailing characters after JSON document");
  }
  return true;
}

bool JsonLexer::ScanString() {
  // Fast path: no escapes and no control bytes -> a view into the text.
  const size_t start = ++pos_;  // opening quote
  while (pos_ < text_.size()) {
    const unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') {
      string_ = text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    if (c == '\\' || c < 0x20) break;
    ++pos_;
  }
  scratch_.assign(text_.data() + start, pos_ - start);
  while (true) {
    if (pos_ >= text_.size()) return Fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') {
      string_ = scratch_;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("unescaped control character in string");
    }
    if (c != '\\') {
      scratch_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) return Fail("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        scratch_.push_back(esc);
        break;
      case 'n':
        scratch_.push_back('\n');
        break;
      case 't':
        scratch_.push_back('\t');
        break;
      case 'r':
        scratch_.push_back('\r');
        break;
      case 'b':
        scratch_.push_back('\b');
        break;
      case 'f':
        scratch_.push_back('\f');
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return Fail("bad \\u escape digit");
          }
        }
        // UTF-8 encode the BMP code point (surrogate pairs are passed
        // through as two separate 3-byte sequences, which is sufficient
        // for config files; SQL text is ASCII in this system).
        if (code < 0x80) {
          scratch_.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          scratch_.push_back(static_cast<char>(0xC0 | (code >> 6)));
          scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          scratch_.push_back(static_cast<char>(0xE0 | (code >> 12)));
          scratch_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return Fail("unknown escape");
    }
  }
}

bool JsonLexer::ScanNumber() {
  const size_t start = pos_;
  const auto digits = [this] {
    const size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > from;
  };
  if (text_[pos_] == '-') ++pos_;
  if (!digits()) return Fail("invalid number");
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    if (!digits()) return Fail("invalid number fraction");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (!digits()) return Fail("invalid number exponent");
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  // from_chars rounds exactly as strtod does; out of range it leaves the
  // value unset, and strtod supplies the signed infinity or zero.
  if (std::from_chars(first, last, number_).ec != std::errc()) {
    number_ = std::strtod(std::string(first, last).c_str(), nullptr);
  }
  return true;
}

namespace {

bool BuildValue(JsonLexer* lex, JsonLexer::Token token, Json* out);

bool ParseValue(JsonLexer* lex, Json* out) {
  JsonLexer::Token token = JsonLexer::Token::kNull;
  return lex->NextValue(&token) && BuildValue(lex, token, out);
}

bool BuildValue(JsonLexer* lex, JsonLexer::Token token, Json* out) {
  bool more = false;
  switch (token) {
    case JsonLexer::Token::kNull:
      *out = Json();
      return true;
    case JsonLexer::Token::kTrue:
      *out = Json(true);
      return true;
    case JsonLexer::Token::kFalse:
      *out = Json(false);
      return true;
    case JsonLexer::Token::kNumber:
      *out = Json(lex->number());
      return true;
    case JsonLexer::Token::kString:
      *out = Json(std::string(lex->string()));
      return true;
    case JsonLexer::Token::kArray:
      *out = Json::MakeArray();
      if (!lex->NextElement(true, &more)) return false;
      while (more) {
        if (!ParseValue(lex, &out->AsArray().emplace_back()) ||
            !lex->NextElement(false, &more)) {
          return false;
        }
      }
      return true;
    case JsonLexer::Token::kObject:
      *out = Json::MakeObject();
      if (!lex->NextMember(true, &more)) return false;
      while (more) {
        // Last wins on duplicate keys.
        Json& slot = out->AsObject()[std::string(lex->string())];
        if (!ParseValue(lex, &slot) || !lex->NextMember(false, &more)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

}  // namespace

StatusOr<Json> Json::Parse(std::string_view text) {
  JsonLexer lex(text);
  Json root;
  if (!ParseValue(&lex, &root) || !lex.Finish()) return lex.status();
  return root;
}

}  // namespace pinsql
