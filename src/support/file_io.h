#ifndef SRC_SUPPORT_FILE_IO_H_
#define SRC_SUPPORT_FILE_IO_H_

#include <string>

namespace gauntlet {

// Whole-file I/O for every artifact this repo reads or writes, all
// binary-exact (no newline translation).

// Reads the whole file into *out; false when it cannot be opened or read.
bool ReadFile(const std::string& path, std::string* out);
// The same, throwing CompileError("cannot read '<path>'") on failure.
std::string ReadFile(const std::string& path);

// Writes `content` to `path` (truncating), flushes, and checks the stream:
// false when the file cannot be opened or any byte fails to land (a full
// disk must not leave a silently truncated file behind).
bool WriteFile(const std::string& path, const std::string& content);

// Writes `content` to `path` atomically: a temp file in the same directory
// (same filesystem, so the rename is atomic) is written, flushed, checked
// and renamed over the destination, so a polling reader sees the old
// content or the new, never a torn file. False on any failure; the temp
// file is cleaned up best-effort.
bool WriteFileAtomic(const std::string& path, const std::string& content);

}  // namespace gauntlet

#endif  // SRC_SUPPORT_FILE_IO_H_
