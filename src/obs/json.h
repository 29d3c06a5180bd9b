// Minimal streaming JSON writer + strict parser for the observability
// layer (provenance manifests, drift/profile reports, the cross-run baseline
// archive). The writer handles comma placement and string escaping; the
// caller is responsible for well-formed nesting (checked with ES_CHECK
// so malformed exporter code fails loudly in tests). The parser accepts
// strict JSON — exactly the language the writer emits — and returns a
// small ordered DOM the sentinel tooling reads baselines and run
// records through.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace edgestab::obs {

/// Shortest decimal rendering of `v` that parses back to the same
/// double (tries 15, 16, then 17 significant digits). Used for every
/// number the exporters emit so document digests are stable across
/// rebuilds and platforms — a fixed "%.6g" truncates differently than
/// it re-parses. Non-finite values render as "null" (JSON has no
/// NaN/Inf).
std::string format_double(double v);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by exactly one value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// The finished document; the writer must be back at nesting depth 0.
  std::string take();
  const std::string& str() const { return out_; }

  static std::string escape(std::string_view s);

 private:
  void comma_for_value();

  std::string out_;
  /// One frame per open container: true once the first element was
  /// written (so the next element is comma-separated).
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

/// Parsed JSON value. A deliberately small DOM: public fields, object
/// members kept in document order (the writer emits deterministic
/// ordering and the sentinel preserves it through round trips).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            ///< arrays
  std::vector<std::pair<std::string, JsonValue>> members;  ///< objects

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// First member with key `key` (objects only); nullptr when absent.
  const JsonValue* find(std::string_view key) const;

  /// The number/string when this value has that type, else `fallback`.
  double number_or(double fallback) const {
    return is_number() ? number : fallback;
  }
  std::string string_or(std::string fallback) const {
    return is_string() ? string : std::move(fallback);
  }

  /// The number as a T when it is finite, integral and within T's
  /// range; nullopt otherwise (and for non-numbers). Every integer read
  /// back from disk goes through here: casting 1e300 or NaN to an
  /// integer is undefined behaviour, and casting 2.5 truncates silently.
  template <std::signed_integral T = long long>
  std::optional<T> as_int() const {
    // -min is 2^(bits-1), exact in a double; max is not.
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    if (!is_number() || !std::isfinite(number) ||
        std::trunc(number) != number || number < lo || number >= -lo)
      return std::nullopt;
    return static_cast<T>(number);
  }

  /// as_int() for unsigned T: the number when it is finite, integral and
  /// in [0, max]; nullopt otherwise.
  template <std::unsigned_integral T = std::uint64_t>
  std::optional<T> as_uint() const {
    // max + 1 is 2^bits, exact in a double; max is not.
    constexpr double hi =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!is_number() || !std::isfinite(number) ||
        std::trunc(number) != number || number < 0 || number >= hi)
      return std::nullopt;
    return static_cast<T>(number);
  }

  /// The string as a u64 when it is 1 to 16 hex digits (hex_digest's
  /// form); nullopt otherwise. 64-bit digests and seeds travel as hex
  /// strings because a JSON number is a double, exact only below 2^53.
  std::optional<std::uint64_t> as_hex_u64() const;

  /// read_int(s) `optional` argument: an absent member keeps its value.
  static constexpr bool kOptional = true;

  /// Integer member `key` into `*out` through as_int() (as_uint() for an
  /// unsigned T). An absent member leaves `*out` as is and is accepted
  /// only when `optional`; a present one must pass the checked read.
  /// False means: refuse the document.
  template <std::integral T>
  bool read_int(std::string_view key, T* out, bool optional = false) const {
    const JsonValue* v = find(key);
    if (v == nullptr) return optional;
    std::optional<T> n;
    if constexpr (std::signed_integral<T>)
      n = v->as_int<T>();
    else
      n = v->as_uint<T>();
    if (n) *out = *n;
    return n.has_value();
  }

  /// read_int over every (key, field) pair; false at the first refusal.
  template <std::integral T>
  bool read_ints(
      std::initializer_list<std::pair<std::string_view, T*>> fields,
      bool optional = false) const {
    for (const auto& [key, field] : fields)
      if (!read_int(key, field, optional)) return false;
    return true;
  }
};

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Returns nullopt on malformed input and,
/// when `error` is non-null, fills it with a byte offset + message.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace edgestab::obs
