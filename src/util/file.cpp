#include "util/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace edgestab {

bool write_file(const std::string& path, std::string_view data,
                std::string* error, bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    if (error != nullptr)
      *error = "cannot open " + path +
               (append ? " for append" : " for writing");
    return false;
  }
  const bool written =
      std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const bool closed = std::fclose(f) == 0;
  if (written && closed) return true;
  if (error != nullptr) *error = "short write to " + path;
  return false;
}

bool read_file(const std::string& path, std::string* out,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr)
      *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  std::string body;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
    body.append(buffer, got);
  const bool failed = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (failed) {
    if (error != nullptr)
      *error = "cannot read " + path + ": " + std::strerror(read_errno);
    return false;
  }
  *out = std::move(body);
  return true;
}

bool write_file_logged(const std::string& path, std::string_view data,
                       const char* tag, bool append) {
  std::string error;
  if (write_file(path, data, &error, append)) return true;
  std::fprintf(stderr, "%s %s\n", tag, error.c_str());
  return false;
}

}  // namespace edgestab
