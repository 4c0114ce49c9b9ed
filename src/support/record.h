#ifndef SRC_SUPPORT_RECORD_H_
#define SRC_SUPPORT_RECORD_H_

#include <cstdint>
#include <istream>
#include <limits>
#include <string>
#include <string_view>

namespace gauntlet {

// ---------------------------------------------------------------------------
// The line-record codec shared by the cache file ("gauntletcache") and the
// shard result ("gauntletshard") formats, and by serve's request headers.
//
// A record is one line of space-separated tokens. Strings travel as hex
// tokens (HexToken) so whitespace and arbitrary bytes survive. The reader is
// strict: numerals must be whole tokens (no sign on unsigned fields, no
// trailing junk), narrowed fields are range-checked, every line must be
// consumed to its end, and nothing may follow the last record. Token
// failures throw CompileError("<context> line N: expected <what>"); Fail
// adds the same prefix to a format's own checks.
// ---------------------------------------------------------------------------

// Two lowercase hex digits per byte; "-" for the empty string.
std::string HexToken(std::string_view text);

// Reads line by line from a stream, so a large cache file is never held in
// memory whole.
class RecordReader {
 public:
  // `context` names the format in error messages ("cache file", ...).
  RecordReader(std::istream& in, std::string context);

  // Advances to the next line, empty or not; false at the end of the stream.
  // Throws when the current line still holds unread tokens.
  bool NextLine();
  // Advances to the next non-empty line; throws "<context> truncated:
  // expected <what>" at the end of the stream.
  void RequireLine(const char* what);
  // Throws unless the current line is consumed and only empty lines follow.
  void Finish();

  bool LineEmpty() const { return line_.empty(); }
  // Everything after the current line (a request's free-form body).
  std::string Rest();

  std::string_view Token(const char* what);
  void ExpectWord(const char* word);
  uint64_t U64(const char* what);
  std::string HexString(const char* what);
  // A count of tokens that follow on this line. A count the rest of the
  // line cannot hold fails here, so the result can size a reserve.
  uint64_t InlineCount(const char* what);

  // A numeral narrowed to `Int`; out-of-range values fail like bad ones.
  template <typename Int>
  Int Read(const char* what) {
    if constexpr (std::numeric_limits<Int>::is_signed) {
      const int64_t value = I64(what);
      if (value < std::numeric_limits<Int>::min() || value > std::numeric_limits<Int>::max()) {
        Fail(std::string("expected ") + what);
      }
      return static_cast<Int>(value);
    } else {
      const uint64_t value = U64(what);
      if (value > std::numeric_limits<Int>::max()) {
        Fail(std::string("expected ") + what);
      }
      return static_cast<Int>(value);
    }
  }

  [[noreturn]] void Fail(const std::string& message) const;

 private:
  int64_t I64(const char* what);

  std::istream& in_;
  std::string context_;
  std::string line_;
  size_t cursor_ = 0;  // next unread byte of line_
  int line_number_ = 0;
};

}  // namespace gauntlet

#endif  // SRC_SUPPORT_RECORD_H_
