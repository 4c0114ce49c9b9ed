#include "src/support/json.h"

#include <algorithm>
#include <cstdio>

#include "src/support/error.h"

namespace gauntlet {

namespace {

constexpr int kMaxJsonDepth = 32;

}  // namespace

std::string JsonQuoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        // Escape control bytes and everything past printable ASCII
        // byte-wise: names are ASCII by construction, and strict parsers
        // reject raw bytes >= 0x7f that are not valid UTF-8.
        const unsigned byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
  return out;
}

// Recursive descent over the accepted subset; every failure throws with the
// byte offset it was detected at.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue Document() {
    JsonValue value = Value(0);
    SkipSpace();
    if (pos_ < text_.size()) {
      Fail("trailing content after the document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) const {
    throw CompileError("json: " + message + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    if (!Consume(c)) {
      Fail(std::string("expected '") + c + "'");
    }
  }

  JsonValue Value(int depth) {
    if (depth >= kMaxJsonDepth) {
      Fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail("expected a value");
    }
    JsonValue value;
    value.begin_ = pos_;
    const char c = text_[pos_];
    if (c == '{') {
      value.kind_ = JsonValue::Kind::kObject;
      ++pos_;
      if (!Consume('}')) {
        do {
          SkipSpace();
          std::string key = String();
          Expect(':');
          value.members_.emplace_back(std::move(key), Value(depth + 1));
        } while (Consume(','));
        Expect('}');
      }
      RejectDuplicateKeys(value.members_);
    } else if (c == '[') {
      value.kind_ = JsonValue::Kind::kArray;
      ++pos_;
      if (!Consume(']')) {
        do {
          value.items_.push_back(Value(depth + 1));
        } while (Consume(','));
        Expect(']');
      }
    } else if (c == '"') {
      value.kind_ = JsonValue::Kind::kString;
      value.string_ = String();
    } else if (c >= '0' && c <= '9') {
      value.kind_ = JsonValue::Kind::kInteger;
      value.integer_ = Integer();
    } else if (Word("true") || Word("false")) {
      value.kind_ = JsonValue::Kind::kBool;  // accepted; no reader needs the value
    } else if (!Word("null")) {
      Fail("expected a value");
    }
    value.end_ = pos_;
    return value;
  }

  bool Word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  uint64_t Integer() {
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() && text_[pos_ + 1] >= '0' &&
        text_[pos_ + 1] <= '9') {
      Fail("integer with a leading zero");
    }
    uint64_t value = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const uint64_t digit = static_cast<uint64_t>(text_[pos_] - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        Fail("integer overflow");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      Fail("expected an integer");
    }
    return value;
  }

  static int HexDigit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  std::string String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail("expected a string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control byte in a string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'u': {
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = pos_ < text_.size() ? HexDigit(text_[pos_]) : -1;
            if (digit < 0) {
              Fail("bad \\u escape");
            }
            value = (value << 4) | static_cast<unsigned>(digit);
            ++pos_;
          }
          if (value > 0xff) {
            Fail("\\u escape above 0x00ff");
          }
          out.push_back(static_cast<char>(value));
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
    Fail("unterminated string");
  }

  void RejectDuplicateKeys(const std::vector<JsonValue::Member>& members) const {
    std::vector<std::string_view> keys;
    keys.reserve(members.size());
    for (const JsonValue::Member& member : members) {
      keys.push_back(member.first);
    }
    std::sort(keys.begin(), keys.end());
    const auto duplicate = std::adjacent_find(keys.begin(), keys.end());
    if (duplicate != keys.end()) {
      Fail("duplicate key \"" + std::string(*duplicate) + "\"");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

JsonValue JsonValue::Parse(std::string_view text) { return JsonParser(text).Document(); }

void JsonValue::FailKind(const char* expected) const {
  throw CompileError(std::string("json: expected ") + expected + " at offset " +
                     std::to_string(begin_));
}

void JsonValue::FailOutOfRange() const {
  throw CompileError("json: integer out of range at offset " + std::to_string(begin_));
}

uint64_t JsonValue::AsU64() const {
  if (kind_ != Kind::kInteger) FailKind("a non-negative integer");
  return integer_;
}

const std::string& JsonValue::AsString() const {
  if (kind_ != Kind::kString) FailKind("a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (kind_ != Kind::kArray) FailKind("an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::AsObject() const {
  if (kind_ != Kind::kObject) FailKind("an object");
  return members_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const Member& member : AsObject()) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

bool ReadJson(std::string_view text, const std::function<void(const JsonValue&)>& read,
              std::string* error) {
  try {
    read(JsonValue::Parse(text));
    return true;
  } catch (const CompileError& failure) {
    if (error != nullptr) {
      *error = failure.what();
    }
    return false;
  }
}

void RequireJsonVersion(const JsonValue& root, const char* what, uint64_t expected) {
  const JsonValue* version = root.Find("version");
  if (version == nullptr) {
    throw CompileError(std::string("missing ") + what + " version");
  }
  if (version->AsU64() != expected) {
    throw CompileError(std::string("unsupported ") + what + " version " +
                       std::to_string(version->AsU64()));
  }
}

}  // namespace gauntlet
