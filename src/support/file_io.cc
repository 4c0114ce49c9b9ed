#include "src/support/file_io.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "src/support/error.h"

namespace gauntlet {

namespace {

std::atomic<uint64_t> g_temp_counter{0};

}  // namespace

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  // Chunked, so pipes and /proc files (no meaningful size) read too.
  out->clear();
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    out->append(buffer, static_cast<size_t>(in.gcount()));
  }
  return !in.bad();
}

std::string ReadFile(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    throw CompileError("cannot read '" + path + "'");
  }
  return text;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  return static_cast<bool>(out);
}

bool WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string temp = path + ".tmp." + std::to_string(static_cast<long>(getpid())) + "." +
                           std::to_string(g_temp_counter.fetch_add(1));
  if (!WriteFile(temp, content)) {
    std::remove(temp.c_str());
    return false;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

}  // namespace gauntlet
