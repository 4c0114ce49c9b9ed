#ifndef SRC_SUPPORT_JSON_H_
#define SRC_SUPPORT_JSON_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gauntlet {

// ---------------------------------------------------------------------------
// The JSON codec for every file this repo writes as JSON: metrics.json,
// trace.json, coverage.json, snapshot.json, heartbeat.json, the corpus
// manifest and finding.json, and serve responses.
//
// Writers render their own byte layouts (those layouts are what the identity
// gates diff), so the only shared writer piece is the string escaper. The
// reader is shared and strict: it accepts exactly what the writers emit —
// objects, arrays, strings, non-negative integers, true/false/null — and
// rejects everything else with an error naming the byte offset:
//
//   * integers: no sign, fraction, exponent or leading zero; overflow past
//     uint64 is an error;
//   * strings: the escapes JsonQuoted writes (\" \\ \n \t \r \u00xx), where
//     a \u escape above ÿ is an error (the writers escape byte-wise);
//     raw control bytes are an error;
//   * objects: duplicate keys are an error;
//   * nesting deeper than 32 levels is an error (never a stack overflow);
//   * anything after the top-level value is an error.
// ---------------------------------------------------------------------------

// A JSON string literal (surrounding quotes included) with quotes and
// backslashes escaped and every byte outside printable ASCII emitted as a
// byte-wise \u00xx escape, so hostile names can never break the emitted JSON.
std::string JsonQuoted(std::string_view text);

// One parsed value. Object members keep document order.
class JsonValue {
 public:
  using Member = std::pair<std::string, JsonValue>;

  // Parses one complete document. Throws CompileError on malformed input.
  static JsonValue Parse(std::string_view text);

  bool is_null() const { return kind_ == Kind::kNull; }

  // Typed views: each throws CompileError when the value has another kind.
  uint64_t AsU64() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::vector<Member>& AsObject() const;

  // AsU64 narrowed to `Int`; a value outside its range throws CompileError.
  template <typename Int>
  Int AsInt() const {
    const uint64_t value = AsU64();
    if (value > static_cast<uint64_t>(std::numeric_limits<Int>::max())) {
      FailOutOfRange();
    }
    return static_cast<Int>(value);
  }

  // Object member lookup (nullptr when absent); throws when not an object.
  const JsonValue* Find(std::string_view key) const;

  // The value's byte span [begin, end) in the parsed text, so a reader can
  // keep an embedded sub-document verbatim.
  size_t begin() const { return begin_; }
  size_t end() const { return end_; }

 private:
  friend class JsonParser;
  enum class Kind { kNull, kBool, kInteger, kString, kArray, kObject };

  [[noreturn]] void FailKind(const char* expected) const;
  [[noreturn]] void FailOutOfRange() const;

  Kind kind_ = Kind::kNull;
  uint64_t integer_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

// Parses `text` and hands the document to `read`, which walks it with the
// throwing accessors above (and may throw CompileError itself). Any
// CompileError becomes false + *error: the convention of the Parse*Json
// readers, which must report a torn or corrupt file, never half-load it.
bool ReadJson(std::string_view text, const std::function<void(const JsonValue&)>& read,
              std::string* error);

// Checks the document's "version" member against `expected`; throws
// CompileError naming `what` when it is missing or different.
void RequireJsonVersion(const JsonValue& root, const char* what, uint64_t expected);

}  // namespace gauntlet

#endif  // SRC_SUPPORT_JSON_H_
