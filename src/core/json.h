// Minimal streaming JSON writer — the serialization substrate of the
// unified report API (core/outcome.h).
//
// Header-only and dependency-free on purpose: every module's report type
// implements `void to_json(core::JsonWriter&) const` without pulling a
// third-party library into the build. The writer emits strictly valid
// JSON: string escaping per RFC 8259 (quote, backslash, control
// characters), non-finite doubles mapped to null (JSON has no NaN/Inf),
// and shortest-round-trip number formatting via std::to_chars so a value
// parsed back compares bit-identical.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace msbist::core {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{', '}'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', ']'); }
  JsonWriter& end_array() { return close(']'); }

  /// Object-member key; must be followed by exactly one value (or a
  /// begin_object/begin_array).
  JsonWriter& key(std::string_view k) {
    if (stack_.empty() || stack_.back().closer != '}') {
      throw std::logic_error("JsonWriter: key() outside an object");
    }
    separate();
    write_string(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::nullptr_t) { return raw("null"); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(std::string_view s) {
    separate();
    write_string(s);
    return *this;
  }
  JsonWriter& value(double d) {
    char buf[32];
    if (d != d || d > 1.7976931348623157e308 || d < -1.7976931348623157e308) {
      return raw("null");  // NaN / Inf are not representable in JSON
    }
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    return raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  }
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T i) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), i);
    return raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  }

  /// key + value in one call: w.member("yield", 0.9).
  template <class T>
  JsonWriter& member(std::string_view k, T&& v) {
    key(k);
    return value(static_cast<T&&>(v));
  }

  /// Splice a pre-rendered JSON document in value position (e.g. a report
  /// produced by another JsonWriter, embedded into a response envelope).
  /// The text is emitted verbatim — the caller vouches for its validity.
  JsonWriter& raw_value(std::string_view json) { return raw(json); }
  /// raw_value for a document that `append(std::string& out)` writes onto
  /// the end of the output itself (a packed report unpacks there, with no
  /// temporary copy).
  template <class Append>
  JsonWriter& raw_value_from(Append&& append) {
    separate();
    append(out_);
    return *this;
  }

  /// The finished document. Throws if containers are still open.
  const std::string& str() const& {
    check_closed();
    return out_;
  }
  /// The finished document, moved out of a writer that is done with it.
  std::string str() && {
    check_closed();
    return std::move(out_);
  }

 private:
  struct Frame {
    char closer;
    bool has_item = false;
  };

  void check_closed() const {
    if (!stack_.empty()) {
      throw std::logic_error("JsonWriter: str() with unclosed containers");
    }
  }

  JsonWriter& open(char opener, char closer) {
    separate();
    out_ += opener;
    stack_.push_back({closer});
    return *this;
  }

  JsonWriter& close(char closer) {
    if (stack_.empty() || stack_.back().closer != closer) {
      throw std::logic_error("JsonWriter: mismatched container close");
    }
    stack_.pop_back();
    out_ += closer;
    return *this;
  }

  JsonWriter& raw(std::string_view text) {
    separate();
    out_ += text;
    return *this;
  }

  /// Insert the comma before a sibling value; a value right after key()
  /// never gets one.
  void separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back().has_item) out_ += ',';
      stack_.back().has_item = true;
    }
  }

  void write_string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (u < 0x20) {
            static const char* hex = "0123456789abcdef";
            out_ += "\\u00";
            out_ += hex[u >> 4];
            out_ += hex[u & 0xF];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> stack_;
  bool pending_value_ = false;
};

}  // namespace msbist::core
