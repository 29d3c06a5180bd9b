#include "util/file.h"

#include <cstdio>

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

bool write_file_logged(const std::string& path, std::string_view data,
                       const char* tag, bool append) {
  std::string error;
  if (write_file(path, data, &error, append)) return true;
  std::fprintf(stderr, "%s %s\n", tag, error.c_str());
  return false;
}

}  // namespace edgestab
