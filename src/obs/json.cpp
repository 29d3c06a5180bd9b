#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace edgestab::obs {

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void JsonWriter::comma_for_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_for_value();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  ES_CHECK_MSG(!has_element_.empty() && !after_key_,
               "unbalanced end_object()");
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_for_value();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  ES_CHECK_MSG(!has_element_.empty() && !after_key_, "unbalanced end_array()");
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  ES_CHECK_MSG(!has_element_.empty() && !after_key_,
               "key() outside an object");
  if (has_element_.back()) out_ += ',';
  has_element_.back() = true;
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma_for_value();
  out_ += '"';
  out_ += escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_for_value();
  out_ += format_double(v);  // "null" for NaN/Inf — JSON has neither
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_for_value();
  out_ += v ? "true" : "false";
  return *this;
}

std::string JsonWriter::take() {
  ES_CHECK_MSG(has_element_.empty() && !after_key_,
               "take() with open containers");
  return std::move(out_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

std::optional<std::uint64_t> JsonValue::as_hex_u64() const {
  if (!is_string() || string.empty() || string.size() > 16)
    return std::nullopt;
  std::uint64_t v = 0;
  for (char ch : string) {
    if (!std::isxdigit(static_cast<unsigned char>(ch))) return std::nullopt;
    const int digit = ch <= '9' ? ch - '0' : (ch | 0x20) - 'a' + 10;
    v = v << 4 | static_cast<std::uint64_t>(digit);
  }
  return v;
}

namespace {

/// Recursive-descent parser over the strict JSON grammar. Depth-capped
/// so hostile input cannot blow the stack.
class JsonParser {
 public:
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    bool ok = parse_value(out, 0) && (skip_ws(), pos_ == text_.size());
    if (!ok) {
      if (error_.empty()) error_ = "trailing characters after document";
      if (error != nullptr)
        *error = "json parse error at byte " + std::to_string(pos_) + ": " +
                 error_;
    }
    return ok;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const char* message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':' after object key");
      ++pos_;
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return fail("unterminated escape");
      char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("invalid \\u escape digit");
          }
          pos_ += 4;
          // UTF-8 encode the code point (the writer only escapes
          // controls, so surrogate pairs are not expected; lone
          // surrogates encode as-is rather than erroring).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("invalid value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  JsonParser parser(text);
  JsonValue value;
  if (!parser.parse(value, error)) return std::nullopt;
  return value;
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace edgestab::obs
