#include "src/support/record.h"

#include <charconv>
#include <iterator>
#include <utility>

#include "src/support/error.h"

namespace gauntlet {

namespace {

constexpr std::string_view kHexDigits = "0123456789abcdef";

// Parses all of `token` as one numeral; false on anything else.
template <typename Int>
bool ParseNumeral(std::string_view token, Int* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::string HexToken(std::string_view text) {
  if (text.empty()) {
    return "-";
  }
  std::string hex;
  hex.reserve(text.size() * 2);
  for (const unsigned char c : text) {
    hex.push_back(kHexDigits[c >> 4]);
    hex.push_back(kHexDigits[c & 0xf]);
  }
  return hex;
}

RecordReader::RecordReader(std::istream& in, std::string context)
    : in_(in), context_(std::move(context)) {}

bool RecordReader::NextLine() {
  while (cursor_ < line_.size() && line_[cursor_] == ' ') {
    ++cursor_;
  }
  if (cursor_ < line_.size()) {
    Fail("expected end of line");
  }
  line_.clear();
  cursor_ = 0;
  if (!std::getline(in_, line_)) {
    return false;
  }
  ++line_number_;
  return true;
}

void RecordReader::RequireLine(const char* what) {
  do {
    if (!NextLine()) {
      throw CompileError(context_ + " truncated: expected " + what);
    }
  } while (LineEmpty());
}

void RecordReader::Finish() {
  while (NextLine()) {
    if (!LineEmpty()) {
      Fail("expected end of file");
    }
  }
}

std::string RecordReader::Rest() {
  return std::string(std::istreambuf_iterator<char>(in_), {});
}

std::string_view RecordReader::Token(const char* what) {
  while (cursor_ < line_.size() && line_[cursor_] == ' ') {
    ++cursor_;
  }
  const size_t begin = cursor_;
  while (cursor_ < line_.size() && line_[cursor_] != ' ') {
    ++cursor_;
  }
  if (cursor_ == begin) {
    Fail(std::string("expected ") + what);
  }
  return std::string_view(line_).substr(begin, cursor_ - begin);
}

void RecordReader::ExpectWord(const char* word) {
  if (Token(word) != word) {
    Fail(std::string("expected ") + word);
  }
}

uint64_t RecordReader::U64(const char* what) {
  uint64_t value = 0;
  if (!ParseNumeral(Token(what), &value)) {
    Fail(std::string("expected ") + what);
  }
  return value;
}

int64_t RecordReader::I64(const char* what) {
  int64_t value = 0;
  if (!ParseNumeral(Token(what), &value)) {
    Fail(std::string("expected ") + what);
  }
  return value;
}

uint64_t RecordReader::InlineCount(const char* what) {
  const uint64_t count = U64(what);
  // Every following token takes at least a separator and one byte.
  if (count > (line_.size() - cursor_) / 2) {
    Fail(std::string("expected ") + what);
  }
  return count;
}

std::string RecordReader::HexString(const char* what) {
  const std::string_view token = Token(what);
  if (token == "-") {
    return "";
  }
  if (token.size() % 2 != 0) {
    Fail(std::string("expected ") + what);
  }
  std::string text;
  text.reserve(token.size() / 2);
  for (size_t i = 0; i < token.size(); i += 2) {
    const size_t hi = kHexDigits.find(token[i]);
    const size_t lo = kHexDigits.find(token[i + 1]);
    if (hi == std::string_view::npos || lo == std::string_view::npos) {
      Fail(std::string("expected ") + what);
    }
    text.push_back(static_cast<char>((hi << 4) | lo));
  }
  return text;
}

void RecordReader::Fail(const std::string& message) const {
  throw CompileError(context_ + " line " + std::to_string(line_number_) + ": " + message);
}

}  // namespace gauntlet
