// Whole-file reads and writes that always release the file.
#pragma once

#include <string>
#include <string_view>

namespace edgestab {

/// Writes `data` to `path` — truncating it, or appending when `append` —
/// and closes the file on every path, so a short write never leaks the
/// FILE*. False on an open failure, a short write or a failing close
/// (a full disk may only show at the flush); `*error`, when non-null,
/// then says which ("cannot open PATH for writing", "short write to
/// PATH").
bool write_file(const std::string& path, std::string_view data,
                std::string* error, bool append = false);

/// Reads all of `path` into `*out` and closes the file on every path.
/// False on an open failure or a read error (a directory opens but does
/// not read); `*out` is then untouched and `*error`, when non-null, says
/// which ("cannot open PATH: <reason>", "cannot read PATH: <reason>").
bool read_file(const std::string& path, std::string* out,
               std::string* error);

/// write_file that reports a failure on stderr as "<tag> <reason>".
bool write_file_logged(const std::string& path, std::string_view data,
                       const char* tag, bool append = false);

}  // namespace edgestab
